// Streaming feature accumulators for the incremental Data Processor path.
//
// The paper's Data Processor "periodically checks if there are any binary
// sensed data" (§II-B) — an incremental contract. Instead of re-decoding an
// app's entire blob history every pass, AppAccumulatorState keeps the
// sufficient statistics of each feature between passes and is fed only the
// blobs past a per-app raw_id cursor:
//
//   kMeanOfAll           — the exact reading list (RobustMean needs the full
//                          sample for its median/MAD outlier gate, so this is
//                          a faithful reservoir, not an approximation);
//   kMeanOfWindowStddev  — a Welford accumulator over per-window stddevs;
//   kStddevOfWindowMeans — a Welford accumulator over per-window means;
//   kGpsCurvature        — per-task time-ordered GPS tails (curvature is a
//                          whole-track property, so the fixes are kept and
//                          the polyline is re-derived at finalize).
//
// Equivalence contract: ingesting blobs one at a time in raw_id order and
// then finalizing yields bit-for-bit the value the full recompute produces —
// every accumulator consumes readings in the same arrival order the
// decode-everything loop would, and Welford state round-trips exactly via
// RunningStats::FromMoments. tests/processor_oracle.cpp keeps the full
// recompute, and tests/test_perf.cpp and tests/test_chaos.cpp hold the
// two side by side to enforce this.
//
// State is serializable (Encode/Decode). The Data Processor keeps it in
// memory between passes and writes it to the processor_state table when
// the server snapshots (DataProcessor::PersistState), so snapshot/restore
// crash recovery resumes the incremental path mid-campaign instead of
// silently re-ingesting history.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "codec/bytes.hpp"
#include "codec/messages.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "server/feature_def.hpp"

namespace sor::server {

// Whole-track curvature (mrad/m) averaged across tasks, the method of the
// paper's [17]. Shared by the incremental finalize and the test-side full
// recompute: tuples are ordered per task by window start (a stable sort of
// pointers, so the stored tuples are neither copied nor reordered), fix
// times are reconstructed evenly over [t, t+Δt], the track is 3-point
// smoothed, and vertices next to a segment under 5 m are skipped (each
// smoothed point's cos(latitude) and each segment length are computed
// once). `n_samples` accumulates the fix count of every track that
// contributed.
[[nodiscard]] double GpsCurvatureOfTracks(
    const std::map<std::uint64_t, std::vector<ReadingTuple>>& gps_by_task,
    std::size_t* n_samples);

// Per-(app, feature) streaming state.
struct FeatureAccState {
  // kMeanOfAll: every matching reading, in arrival order.
  std::vector<double> values;
  // Window methods: Welford over per-window statistics, in arrival order.
  RunningStats window;
  // Sample count reported alongside window-method features (the full path
  // counts readings of *contributing* windows only, so it is tracked here
  // rather than derived from `window`).
  std::uint64_t n_samples = 0;
};

// All streaming state of one application: the raw_id cursor plus one
// FeatureAccState per feature definition (positional — features[j] belongs
// to defs[j]) plus the shared per-task GPS tails.
struct AppAccumulatorState {
  std::int64_t cursor = 0;  // highest raw_id already ingested
  std::vector<FeatureAccState> features;
  std::map<std::uint64_t, std::vector<ReadingTuple>> gps_by_task;

  // Fold one decoded reading tuple (from the upload of `task`) into every
  // feature accumulator. Must be called in raw_id order; `defs` must be the
  // same list (same order) on every call and at Finalize.
  void Ingest(const std::vector<FeatureDef>& defs, std::uint64_t task,
              const ReadingTuple& tuple);

  // Produce the value of feature `j` exactly as the full recompute would.
  [[nodiscard]] double Finalize(std::size_t j, const FeatureDef& def,
                                bool reject_outliers, double z_threshold,
                                std::size_t* n_samples) const;

  // Deterministic binary round-trip; Decode fails (kDecodeError) on version
  // or shape mismatch, e.g. a snapshot taken under a different feature list,
  // and on a count that the bytes left cannot hold.
  [[nodiscard]] Bytes Encode() const;
  [[nodiscard]] static Result<AppAccumulatorState> Decode(
      std::span<const std::uint8_t> bytes, std::size_t expected_features);

  // How many times this process has run Encode (the perf tests count them).
  [[nodiscard]] static std::uint64_t encodes();
};

}  // namespace sor::server
