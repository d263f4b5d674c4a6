// micro_db — what the embedded relational store costs per operation.
//
// One JSON object on stdout, per-op nanoseconds of every table access path
// the server's hot loops lean on (docs/performance.md):
//
//   * insert            — append into the slot array + pk/secondary index
//   * insert_batch      — InsertBatch bulk load (per row), one lock + pure
//                         postings appends; the snapshot-restore path
//   * point_lookup      — FindByKey through the pk index
//   * read_cell         — single-cell read (ConsumeBudget's read half)
//   * indexed_scan      — ForEachWhereEq visitation over a secondary index
//                         (16-way fanout) — the hot-path equality scan; no
//                         row copies
//   * indexed_materialize — FindWhereEq over the same index, copying every
//                         matching row out; what indexed_scan measured
//                         before the visitation paths existed
//   * cursored_read     — ForEachWhereEqFromPk suffix visitation, the
//                         incremental processor's "only the new rows" path
//   * update_by_key     — copy + validate + diff-aware reindex
//   * update_in_place   — the zero-copy fast path for non-key, non-indexed
//                         columns (ConsumeBudget's write half)
//   * full_scan         — the O(n) walk everything above exists to avoid,
//                         included for scale
//
// Loop timings use steady_clock around a fixed iteration count with an
// empty-asm sink, same discipline as micro_obs. tools/ci.sh runs this as a
// smoke test; BENCH_micro_db.json records a blessed run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "db/database.hpp"
#include "json_gate.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace sor::db;

template <typename T>
inline void Sink(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

double NsPerOp(Clock::time_point t0, Clock::time_point t1,
               std::uint64_t iters) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

Schema BenchSchema() {
  Schema s;
  s.table_name = "bench";
  s.columns = {{"id", ColumnType::kInt64},
               {"app", ColumnType::kInt64},
               {"status", ColumnType::kText},
               {"value", ColumnType::kDouble}};
  return s;
}

constexpr std::int64_t kFanout = 16;  // distinct "app" values

void FillTable(Table& t, std::int64_t rows) {
  (void)t.CreateIndex("app");
  for (std::int64_t i = 0; i < rows; ++i) {
    (void)t.Insert(
        {Value(i), Value(i % kFanout), Value("running"), Value(1.5)});
  }
}

double BenchInsert(std::uint64_t iters) {
  Table t(BenchSchema());
  (void)t.CreateIndex("app");
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto r = t.Insert({Value(static_cast<std::int64_t>(i)),
                       Value(static_cast<std::int64_t>(i) % kFanout),
                       Value("running"), Value(1.5)});
    Sink(r.ok());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

double BenchInsertBatch(std::int64_t rows, std::int64_t batch) {
  Table t(BenchSchema());
  (void)t.CreateIndex("app");
  const auto t0 = Clock::now();
  for (std::int64_t base = 0; base < rows; base += batch) {
    std::vector<Row> chunk;
    chunk.reserve(static_cast<std::size_t>(batch));
    for (std::int64_t i = base; i < base + batch; ++i) {
      chunk.push_back(
          {Value(i), Value(i % kFanout), Value("running"), Value(1.5)});
    }
    auto r = t.InsertBatch(std::move(chunk));
    Sink(r.ok());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, static_cast<std::uint64_t>(rows));
}

double BenchPointLookup(const Table& t, std::int64_t rows,
                        std::uint64_t iters) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto row = t.FindByKey(Value(static_cast<std::int64_t>(i) % rows));
    Sink(row.has_value());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

double BenchReadCell(const Table& t, std::int64_t rows,
                     std::uint64_t iters) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto cell = t.ReadCell(Value(static_cast<std::int64_t>(i) % rows), 3);
    Sink(cell.ok());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

// The equality scan the server's hot loops actually run: visit every row in
// the postings list, read a cell, copy nothing.
double BenchIndexedScan(const Table& t, std::uint64_t iters) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    double sum = 0.0;
    t.ForEachWhereEq("app", Value(static_cast<std::int64_t>(i) % kFanout),
                     [&](const Row& r) {
                       sum += r[3].as_double();
                       return true;
                     });
    Sink(sum);
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

// The materializing variant: same row set, but every row (string status
// column included) is copied out. Kept as its own metric so the cost of
// reaching for FindWhereEq on a hot path stays visible.
double BenchIndexedMaterialize(const Table& t, std::uint64_t iters) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto rows =
        t.FindWhereEq("app", Value(static_cast<std::int64_t>(i) % kFanout));
    Sink(rows.size());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

// The incremental processor's shape: everything before the cursor is old
// news; only the suffix (here: the last 8 matching rows) is visited.
double BenchCursoredRead(const Table& t, std::int64_t rows,
                         std::uint64_t iters) {
  const Value cursor(rows - 8 * kFanout);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    std::size_t seen = 0;
    t.ForEachWhereEqFromPk("app",
                           Value(static_cast<std::int64_t>(i) % kFanout),
                           cursor, [&](const Row&) {
                             ++seen;
                             return true;
                           });
    Sink(seen);
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

double BenchUpdateByKey(Table& t, std::int64_t rows, std::uint64_t iters) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto s = t.UpdateByKey(Value(static_cast<std::int64_t>(i) % rows),
                           [](Row& r) { r[3] = Value(2.5); });
    Sink(s.ok());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

double BenchUpdateInPlace(Table& t, std::int64_t rows,
                          std::uint64_t iters) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto s = t.UpdateInPlace(Value(static_cast<std::int64_t>(i) % rows), 3,
                             Value(3.5));
    Sink(s.ok());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

double BenchFullScan(const Table& t, std::uint64_t iters) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto rows = t.Scan([](const Row& r) { return r[1].as_int() == 3; });
    Sink(rows.size());
  }
  const auto t1 = Clock::now();
  return NsPerOp(t0, t1, iters);
}

}  // namespace

int main(int argc, char** argv) {
  sor::bench::RequireCleanTree(argc, argv);
  constexpr std::int64_t kRows = 100'000;
  constexpr std::int64_t kBatch = 1'000;
  constexpr std::uint64_t kPointIters = 2'000'000;
  constexpr std::uint64_t kScanIters = 20'000;
  constexpr std::uint64_t kMaterializeIters = 2'000;
  constexpr std::uint64_t kFullScanIters = 200;

  const double insert_ns = BenchInsert(kRows);
  const double insert_batch_ns = BenchInsertBatch(kRows, kBatch);
  Table t(BenchSchema());
  FillTable(t, kRows);
  const double point_lookup_ns = BenchPointLookup(t, kRows, kPointIters);
  const double read_cell_ns = BenchReadCell(t, kRows, kPointIters);
  const double indexed_scan_ns = BenchIndexedScan(t, kScanIters);
  const double indexed_materialize_ns =
      BenchIndexedMaterialize(t, kMaterializeIters);
  const double cursored_read_ns = BenchCursoredRead(t, kRows, kScanIters);
  const double update_by_key_ns = BenchUpdateByKey(t, kRows, kPointIters);
  const double update_in_place_ns = BenchUpdateInPlace(t, kRows, kPointIters);
  const double full_scan_ns = BenchFullScan(t, kFullScanIters);

  std::printf("{\n  \"bench\": \"micro_db\",\n");
  std::printf("  \"host_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"build_type\": \"%s\",\n", SOR_BUILD_TYPE);
  std::printf("  \"git_sha\": \"%s\",\n", SOR_GIT_SHA);
  std::printf("  \"rows\": %lld,\n", static_cast<long long>(kRows));
  std::printf("  \"per_op_ns\": {\n");
  std::printf("    \"insert\": %.1f,\n", insert_ns);
  std::printf("    \"insert_batch\": %.1f,\n", insert_batch_ns);
  std::printf("    \"point_lookup\": %.1f,\n", point_lookup_ns);
  std::printf("    \"read_cell\": %.1f,\n", read_cell_ns);
  std::printf("    \"indexed_scan\": %.1f,\n", indexed_scan_ns);
  std::printf("    \"indexed_materialize\": %.1f,\n", indexed_materialize_ns);
  std::printf("    \"cursored_read\": %.1f,\n", cursored_read_ns);
  std::printf("    \"update_by_key\": %.1f,\n", update_by_key_ns);
  std::printf("    \"update_in_place\": %.1f,\n", update_in_place_ns);
  std::printf("    \"full_scan\": %.1f\n", full_scan_ns);
  std::printf("  }\n}\n");
  return 0;
}
