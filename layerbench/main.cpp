// layerbench — layer-timed, single-threaded, in-process SOR benchmark.
//
//   layerbench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// Runs one untimed warm-up campaign and one untimed full-size pass, then
// timed passes of the workload until S seconds are spent (at least one;
// with --trace 1 untraced and traced passes alternate), then the untimed
// System::RunFieldTest oracle. A HostProbe runs between passes, and each
// pass's end-to-end times are divided by the host factor measured nearest
// to them.
// Diagnostics go to stderr; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 1 when any output differs from the oracle or an operation fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign.hpp"
#include "probe.hpp"

namespace {

using layerbench::PassResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 50.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "layerbench: %s\nusage: layerbench --workload "
               "join_storm|sensing_day --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

std::vector<double> Pool(const std::vector<PassResult>& passes,
                         std::vector<double> PassResult::*field) {
  std::vector<double> all;
  for (const PassResult& p : passes)
    all.insert(all.end(), (p.*field).begin(), (p.*field).end());
  std::sort(all.begin(), all.end());
  return all;
}

template <typename F>
double MedianOf(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return layerbench::Median(std::move(v));
}

// Pooled percentile of one latency, noting on stderr its sample count and
// the highest percentile that count supports (ten samples beyond it).
double Latency(const char* name, const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  const double value = layerbench::Percentile(sorted, p);
  std::fprintf(stderr, "  %-20s n=%zu p%g = %.3f (n supports up to p%g)\n",
               name, n, p, value, layerbench::HighestSupportedPercentile(n));
  return value;
}

std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes,
                             double peak_rss_mb) {
  const auto join = Pool(passes, &PassResult::join_us);
  const auto leave = Pool(passes, &PassResult::leave_us);
  return {
      {"setup_s", "s", MedianOf(passes, [](const auto& p) { return p.setup_s; })},
      {"campaign_s", "s",
       MedianOf(passes, [](const auto& p) { return p.campaign_s; })},
      {"join_p50_us", "us", Latency("join_p50_us", join, 50)},
      {"leave_p50_us", "us", Latency("leave_p50_us", leave, 50)},
      {"uploads_per_s", "1/s", MedianOf(passes, [](const auto& p) {
         return static_cast<double>(p.uploads_stored) / p.tick_loop_s;
       })},
      {"rank_ready_ms", "ms",
       MedianOf(passes, [](const auto& p) { return p.rank_ready_ms; })},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

std::vector<Metric> PerLayer(const std::vector<PassResult>& traced,
                             double overhead_ms, double coverage_pct,
                             double host_factor) {
  std::vector<std::map<std::string, double>> layers;
  for (const PassResult& p : traced) layers.push_back(layerbench::LayerMetrics(p));
  const auto median = [&layers](const char* name) {
    std::vector<double> v;
    for (const auto& m : layers) v.push_back(m.at(name));
    return layerbench::Median(std::move(v));
  };
  std::vector<Metric> out = {
      {"server.participation_p50_us", "us", 0},
      {"sched.gain_evaluations_per_join", "count", 0},
      {"sched.schedules_sent_per_join", "count", 0},
      {"db.full_scans", "count", 0},
      {"db.participations_rows", "count", 0},
      {"server.leave_p50_us", "us", 0},
      {"phone.tick_ms", "ms", 0},
      {"phone.tuples_collected", "count", 0},
      {"net.merge_self_ms", "ms", 0},
      {"net.bytes_sent", "bytes", 0},
      {"server.upload_p50_us", "us", 0},
      {"db.raw_data_rows", "count", 0},
      {"processor.pass_ms", "ms", 0},
      {"processor.matrix_us", "us", 0},
      {"processor.blobs_decoded", "count", 0},
      {"rank.busy_ms", "ms", 0},
      {"phone.pending_peak", "count", 0},
      {"phone.upload_failures", "count", 0},
      {"sched.distribution_failures", "count", 0},
      {"server.participations_rejected", "count", 0},
  };
  for (Metric& m : out) m.value = median(m.name);
  out.push_back({"trace.overhead_ms", "ms", overhead_ms});
  out.push_back({"trace.coverage_pct", "%", coverage_pct});
  out.push_back({"host.factor", "ratio", host_factor});
  return out;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const std::optional<layerbench::Workload> workload =
      layerbench::MakeWorkload(args.workload, args.seed, /*tiny=*/false);
  if (!workload) Usage("unknown workload");

  // Warm-up: the paper's 36-phone coffee field test, untimed, so allocator
  // growth and first-call costs stay out of the timed passes.
  {
    sor::core::System warm;
    if (!warm.RunFieldTest(sor::world::MakeCoffeeShopScenario()).ok()) {
      std::fprintf(stderr, "layerbench: warm-up campaign failed\n");
      return 1;
    }
  }

  // Allocated before any pass, so its buffers add a constant to peak RSS.
  layerbench::HostProbe probe;
  std::vector<double> host_factors;  // one per timed pass

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<PassResult> warm_passes;  // checked against the oracle only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Pass 0 is a full-size warm-up: the small campaign above leaves the heap
  // far below this workload's size, and its page faults would land in the
  // first timed pass. Later passes reuse the memory it faulted in.
  double probe_before = probe.Measure();
  for (int pass = 0;; ++pass) {
    const bool warm = pass == 0;
    const bool trace_this = args.trace && pass % 2 == 0 && !warm;
    PassResult p = layerbench::RunPass(*workload, trace_this);
    if (!p.ok) {
      std::fprintf(stderr, "layerbench: pass %d failed: %s\n", pass,
                   p.error.c_str());
      return 1;
    }
    const double probe_after = probe.Measure();
    attempted += p.attempted;
    failed += p.failed;
    const auto pct = [](std::vector<double> v, double q) {
      std::sort(v.begin(), v.end());
      return layerbench::Percentile(v, q);
    };
    std::fprintf(stderr,
                 "pass %d%s: host %.3f/%.3f, raw setup %.4f s, campaign "
                 "%.3f s, ticks %.3f s, rank_ready %.1f ms, join p50/p99 "
                 "%.1f/%.1f us, leave p50/p99 %.1f/%.1f us\n",
                 pass, warm ? " (warm-up)" : trace_this ? " (traced)" : "",
                 probe_before, probe_after, p.setup_s, p.campaign_s,
                 p.tick_loop_s, p.rank_ready_ms, pct(p.join_us, 50),
                 pct(p.join_us, 99), pct(p.leave_us, 50), pct(p.leave_us, 99));
    layerbench::Normalize(p, probe_before, probe_after);
    if (!warm) host_factors.push_back((probe_before + probe_after) / 2.0);
    probe_before = probe_after;
    (warm ? warm_passes : trace_this ? traced : untraced).push_back(std::move(p));
    const int done = pass + 1;
    const bool have_all = !untraced.empty() && (!args.trace || !traced.empty());
    if (have_all && elapsed_s() * (done + 1) / done > args.seconds) break;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB; the probe's buffers stayed resident throughout.
  const double peak_rss_mb =
      (static_cast<double>(usage.ru_maxrss) * 1024.0 -
       static_cast<double>(probe.resident_bytes())) /
      (1024.0 * 1024.0);

  // The oracle, untimed. Every pass must match it exactly.
  bool correct = true;
  const sor::Result<layerbench::Outputs> oracle =
      layerbench::RunOracle(*workload);
  if (!oracle.ok()) {
    std::fprintf(stderr, "layerbench: oracle failed: %s\n",
                 oracle.error().str().c_str());
    correct = false;
  } else {
    for (const auto* set : {&warm_passes, &untraced, &traced}) {
      for (const PassResult& p : *set) {
        const std::string diff =
            layerbench::OracleMismatch(p.outputs, oracle.value());
        if (!diff.empty()) {
          std::fprintf(stderr, "layerbench: oracle mismatch: %s\n",
                       diff.c_str());
          correct = false;
        }
      }
    }
  }
  std::fprintf(stderr, "operations: %llu attempted, %llu failed (%.4f%%)\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               attempted > 0 ? 100.0 * static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0.0);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(untraced, peak_rss_mb);
  } else {
    // Stage coverage: the layer spans must account for >= 90% of each
    // traced campaign.
    double coverage = 1.0;
    for (const PassResult& p : traced)
      coverage = std::min(coverage, layerbench::Coverage(p.spans, p.campaign_span));
    if (coverage < 0.9) {
      std::fprintf(stderr, "layerbench: layer spans cover %.1f%% < 90%% of "
                   "campaign_s\n", 100.0 * coverage);
      correct = false;
    }
    const auto campaign = [](const PassResult& p) { return p.campaign_s; };
    const double overhead_ms =
        1e3 * (MedianOf(traced, campaign) - MedianOf(untraced, campaign));
    std::fprintf(stderr, "self time by layer (last traced pass), ms:\n");
    for (const auto& [name, ms] : layerbench::SelfTimeByName(traced.back().spans))
      std::fprintf(stderr, "  %-22s %10.3f\n", name.c_str(), ms);
    std::fprintf(stderr, "tracing overhead: %.3f ms of campaign_s\n",
                 overhead_ms);
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out, std::ios::binary);
      f << layerbench::ChromeTraceJson(traced.back().spans);
      if (!f) {
        std::fprintf(stderr, "layerbench: cannot write %s\n",
                     args.trace_out.c_str());
        correct = false;
      }
    }
    metrics = PerLayer(traced, overhead_ms, 100.0 * coverage,
                       layerbench::Median(host_factors));
  }
  PrintResult(correct && failed == 0, attempted, failed, metrics);
  return correct && failed == 0 ? 0 : 1;
}
