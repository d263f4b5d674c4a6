// The benchmark's workloads and the timed campaign loop.
//
// RunPass drives the same public calls, in the same order, as
// core::System::RunFieldTest does with one thread, and times each call from
// the outside. RunOracle runs RunFieldTest itself on the same scenario and
// config; a pass is correct only if its outputs match the oracle's exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.hpp"
#include "spans.hpp"

namespace layerbench {

struct Workload {
  sor::world::Scenario scenario;
  sor::core::FieldTestConfig config;
};

inline constexpr std::string_view kWorkloadNames[] = {"join_storm",
                                                   "sensing_day"};

// The named workload, with `seed` as the fleet seed. `tiny` shrinks the
// fleet (and sensing_day's period) for smoke tests. nullopt for an unknown
// name.
[[nodiscard]] std::optional<Workload> MakeWorkload(std::string_view name,
                                                   std::uint64_t seed,
                                                   bool tiny);

// What the oracle comparison looks at.
struct Outputs {
  std::string rankings_text;  // core::RenderRankingsText
  sor::rank::FeatureMatrix matrix;
  std::uint64_t gain_evaluations = 0;  // sched.gain_evaluations
};

// Empty when `got` equals `want` exactly (rankings byte-identical, every
// matrix cell bit-identical, equal gain evaluations); otherwise the first
// difference found.
[[nodiscard]] std::string OracleMismatch(const Outputs& got,
                                         const Outputs& want);

struct PassResult {
  bool ok = true;          // false: a call returned an error the campaign
  std::string error;       // cannot continue past
  double setup_s = 0.0;    // before the first scan
  double campaign_s = 0.0; // first scan .. last ranking
  double tick_loop_s = 0.0;  // phase-A ticks + epoch merges
  double rank_ready_ms = 0.0;  // last leave .. every ranking exists
  std::vector<double> join_us, leave_us;  // one per call
  std::uint64_t uploads_stored = 0;
  std::uint64_t attempted = 0;  // joins + leaves + uploads + rank queries
  std::uint64_t failed = 0;
  // Per-layer counts, read from the registry and the tables after the run.
  std::map<std::string, double> counts;
  Outputs outputs;
  // Traced passes only: every span, and the index of the "campaign" span.
  std::vector<Span> spans;
  int campaign_span = -1;
};

// One timed campaign. `traced` records spans and wraps the server's
// endpoint so each message handler is timed by frame type.
[[nodiscard]] PassResult RunPass(const Workload& w, bool traced);

// Divides every end-to-end time of a pass by the host factor (HostProbe)
// measured nearest to it, so the pass reads as if run on the reference host.
// Set-up and joins open the pass, right after the probe `before`; leaves and
// the rankings close it, right before the probe `after`; the campaign and
// the tick loop span both, so they take the mean of the two.
void Normalize(PassResult& p, double before, double after);

// The untimed oracle: core::System::RunFieldTest on the same inputs.
[[nodiscard]] sor::Result<Outputs> RunOracle(const Workload& w);

// Per-layer metrics of one traced pass: times from its spans, counts from
// PassResult::counts. Keys are the metric names.
[[nodiscard]] std::map<std::string, double> LayerMetrics(const PassResult& p);

// Total self time per span name, in milliseconds.
[[nodiscard]] std::map<std::string, double> SelfTimeByName(
    const std::vector<Span>& spans);

}  // namespace layerbench
