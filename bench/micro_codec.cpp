// Microbenchmark — wire-message encode/decode (per-upload cost on both
// ends of the §II-A binary HTTP-body protocol).
#include <benchmark/benchmark.h>

#include "codec/barcode.hpp"
#include "codec/crc32.hpp"
#include "codec/messages.hpp"

namespace {

sor::Message MakeUpload(int batches, int values) {
  sor::SensedDataUpload up;
  up.task = sor::TaskId{9};
  up.user = sor::UserId{42};
  for (int b = 0; b < batches; ++b) {
    sor::ReadingTuple t;
    t.kind = sor::SensorKind::kDroneTemperature;
    t.t = sor::SimTime{b * 5'000};
    t.dt = sor::SimDuration{5'000};
    for (int v = 0; v < values; ++v)
      t.values.push_back(68.0 + 0.01 * v);
    up.batches.push_back(std::move(t));
  }
  return up;
}

void BM_EncodeUpload(benchmark::State& state) {
  const sor::Message m =
      MakeUpload(static_cast<int>(state.range(0)), 10);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const sor::Bytes frame = sor::EncodeFrame(m);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeUpload)->Arg(1)->Arg(10)->Arg(100);

void BM_DecodeUpload(benchmark::State& state) {
  const sor::Bytes frame =
      sor::EncodeFrame(MakeUpload(static_cast<int>(state.range(0)), 10));
  for (auto _ : state) {
    auto m = sor::DecodeFrame(frame);
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeUpload)->Arg(1)->Arg(10)->Arg(100);

// CRC-32 over 64 B (a small reply frame), 1 KiB (a typical upload) and
// 64 KiB (a snapshot-sized payload).
void BM_Crc32(benchmark::State& state) {
  sor::Bytes data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  for (auto _ : state) {
    const std::uint32_t crc = sor::Crc32(data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(64 * 1024);

void BM_BarcodeRenderScan(benchmark::State& state) {
  sor::BarcodePayload p;
  p.app = sor::AppId{7};
  p.place = sor::PlaceId{101};
  p.place_name = "B&N Cafe";
  p.location = sor::GeoPoint{43.045, -76.073, 130.0};
  p.server = "server";
  for (auto _ : state) {
    const sor::BitMatrix m = sor::RenderBarcodeMatrix(p);
    auto decoded = sor::ScanBarcodeMatrix(m);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_BarcodeRenderScan);

}  // namespace
