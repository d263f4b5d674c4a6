// Tests of the benchmark's own arithmetic, plus a tiny-size smoke run of
// every workload against the System::RunFieldTest oracle.
//
//   layerbench_selftest      (exit 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "probe.hpp"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  using layerbench::HighestSupportedPercentile;
  using layerbench::Percentile;
  const std::vector<double> hundred = OneTo(100);
  Check(Percentile(hundred, 50) == 50, "nearest-rank p50 of 1..100 is 50");
  Check(Percentile(hundred, 95) == 95, "nearest-rank p95 of 1..100 is 95");
  Check(Percentile(hundred, 99) == 99, "nearest-rank p99 of 1..100 is 99");
  Check(Percentile({7.0}, 99) == 7.0, "percentile of one sample is it");
  Check(Percentile({}, 50) == 0.0, "percentile of no samples is 0");
  Check(HighestSupportedPercentile(19) == 0, "19 samples support no p50");
  Check(HighestSupportedPercentile(20) == 50, "20 samples support p50");
  Check(HighestSupportedPercentile(200) == 95, "200 samples support p95");
  Check(HighestSupportedPercentile(999) == 95, "999 samples stop at p95");
  Check(HighestSupportedPercentile(1000) == 99, "1000 samples support p99");
  Check(HighestSupportedPercentile(3000) == 99, "3000 samples stop at p99");
  Check(HighestSupportedPercentile(10000) == 99.9,
        "10000 samples support p99.9");
}

void TestSpans() {
  using layerbench::Span;
  // root [0,100): A [10,40) holding a [20,30); B [50,60) and C [55,70)
  // overlap, so the children cover 30 + 20 = 50.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0}, {"A", 10, 40, 0, 1}, {"a", 20, 30, 1, 1},
      {"B", 50, 60, 0, 2},     {"C", 55, 70, 0, 3},
  };
  const std::vector<std::int64_t> self = layerbench::SelfTimes(spans);
  Check(self[0] == 50, "root self time excludes the union of its children");
  Check(self[1] == 20, "nested child self time excludes its grandchild");
  Check(self[2] == 10 && self[3] == 10 && self[4] == 15,
        "leaf self time is its duration");
  Check(layerbench::Coverage(spans, 0) == 0.5,
        "coverage is the children's union over the root's duration");
  // A child running past its parent counts only inside the parent.
  const std::vector<Span> spill = {{"root", 0, 10, -1, 0},
                                   {"late", 5, 25, 0, 0}};
  Check(layerbench::SelfTimes(spill)[0] == 5, "child cover is clipped");
  Check(layerbench::Coverage(spill, 0) == 0.5, "coverage is clipped");

  layerbench::SpanRecorder rec(true);
  rec.Begin("outer", 1);
  rec.Begin("inner", 2);
  rec.End();
  rec.End();
  const auto& got = rec.spans();
  Check(got.size() == 2 && got[1].parent == 0 && got[0].parent == -1 &&
            got[1].id == 2 && got[0].end_ns >= got[1].end_ns,
        "recorder nests spans and keeps request ids");
  layerbench::SpanRecorder off(false);
  off.Begin("x");
  Check(off.End() >= 0 && off.spans().empty(),
        "a non-recording recorder still times, but keeps nothing");
}

void TestNormalize() {
  layerbench::PassResult p;
  p.setup_s = 2.0;
  p.join_us = {4.0};
  p.campaign_s = 6.0;
  p.tick_loop_s = 3.0;
  p.leave_us = {8.0};
  p.rank_ready_ms = 16.0;
  layerbench::Normalize(p, 2.0, 4.0);
  Check(p.setup_s == 1.0 && p.join_us[0] == 2.0,
        "set-up and joins divide by the probe before the pass");
  Check(p.campaign_s == 2.0 && p.tick_loop_s == 1.0,
        "campaign and tick loop divide by the mean of both probes");
  Check(p.leave_us[0] == 2.0 && p.rank_ready_ms == 4.0,
        "leaves and rank_ready divide by the probe after the pass");
}

void TestHostProbe() {
  layerbench::HostProbe probe;
  const double factor = probe.Measure();
  Check(std::isfinite(factor) && factor > 0.0,
        "the host probe gives a positive, finite factor");
  Check(probe.resident_bytes() == 44u << 20,
        "the host probe keeps 44 MiB resident");
}

void TestOracleRejectsPerturbedMatrix(const layerbench::Outputs& good) {
  layerbench::Outputs bad = good;
  bad.matrix.set(0, 0, std::nextafter(good.matrix.at(0, 0), 1e300));
  const std::string diff = layerbench::OracleMismatch(bad, good);
  Check(diff.find("cell (0, 0)") != std::string::npos,
        "oracle rejects a one-ulp change to one feature-matrix cell");
  bad = good;
  ++bad.gain_evaluations;
  Check(!layerbench::OracleMismatch(bad, good).empty(),
        "oracle rejects a different gain-evaluation count");
}

void SmokeWorkloads() {
  for (const std::string_view name : layerbench::kWorkloadNames) {
    const std::string n(name);
    const auto w = layerbench::MakeWorkload(name, 7, /*tiny=*/true);
    Check(w.has_value(), n + ": tiny workload builds");
    if (!w) continue;
    const sor::Result<layerbench::Outputs> oracle = layerbench::RunOracle(*w);
    Check(oracle.ok(), n + ": oracle campaign runs");
    if (!oracle.ok()) continue;
    for (const bool traced : {false, true}) {
      const std::string mode = traced ? " (traced)" : "";
      const layerbench::PassResult p = layerbench::RunPass(*w, traced);
      Check(p.ok && p.failed == 0 && p.attempted > 0,
            n + mode + ": pass runs with no failed operation");
      const std::string diff = layerbench::OracleMismatch(p.outputs,
                                                          oracle.value());
      Check(diff.empty(), n + mode + ": pass matches the oracle " + diff);
      if (!traced) continue;
      Check(layerbench::Coverage(p.spans, p.campaign_span) >= 0.9,
            n + ": layer spans cover >= 90% of the campaign");
      const auto layers = layerbench::LayerMetrics(p);
      Check(layers.at("server.participation_p50_us") > 0 &&
                layers.at("server.upload_p50_us") > 0 &&
                layers.at("server.leave_p50_us") > 0,
            n + ": the endpoint wrapper times every handler type");
    }
    if (name == "join_storm") TestOracleRejectsPerturbedMatrix(oracle.value());
  }
  const auto seeded = layerbench::MakeWorkload("sensing_day", 42, false);
  Check(seeded->config.seed == 42 && seeded->config.threads == 1,
        "the seed reaches the fleet, on one thread");
  Check(!layerbench::MakeWorkload("nope", 1, true).has_value(),
        "an unknown workload is refused");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSpans();
  TestNormalize();
  TestHostProbe();
  SmokeWorkloads();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
