// Data Processor (§II-B / §IV-A).
//
// "The Data Processor periodically checks if there are any binary sensed
// data in the database, and if any, it decodes the data and stores useful
// information into corresponding tables ... it also processes raw data to
// generate more meaningful data for various sensing features (temperature,
// humidity, roughness of road surface, etc), which will then be stored into
// the database to serve as input for the Personalizable Ranker."
//
// ProcessApp() feeds per-app accumulators (AppAccumulatorState), cached in
// memory, only the blobs past the app's raw_id cursor, each decoded once
// into one reused upload, so a pass costs O(new uploads) instead of
// O(total history) and writes nothing to raw_data: the cursor is the
// processed watermark (docs/performance.md). PersistState writes the
// accumulators to the processor_state table; the server calls it at
// snapshot time only, since state changes only inside passes and only a
// restore reads it back. The decode-everything recompute the accumulators
// are held bit-identical to lives in tests/processor_oracle.cpp.
// BuildFeatureMatrix() assembles the ranker's H matrix from the feature
// rows across the applications of one category.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "db/database.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rank/personalizable_ranker.hpp"
#include "server/feature_accumulator.hpp"
#include "server/managers.hpp"

namespace sor::server {

// A view over the "processor.*" counters of the processor's registry (one
// ProcessApp call also tallies into one before flushing it there).
struct DataProcessorStats {
  std::uint64_t blobs_decoded = 0;
  std::uint64_t blobs_rejected = 0;  // malformed bodies (decode failures)
  std::uint64_t tuples_processed = 0;
  std::uint64_t features_written = 0;
  // Periodic checks that found nothing new for an app and skipped it (the
  // per-app stored/processed watermarks make this an O(1) probe).
  std::uint64_t apps_skipped = 0;
};

struct DataProcessorOptions {
  // Robust extraction for mean-type features: readings whose modified
  // z-score exceeds the threshold are excluded, so one phone with a
  // broken or miscalibrated sensor cannot drag a place's feature value.
  bool reject_outliers = true;
  double outlier_z_threshold = 6.0;
  // Resume each app's accumulators from their cursor. false resets them to
  // cursor 0 before every pass: a fresh accumulator given every blob, the
  // same values at the cost of re-decoding the history. Appended last so
  // positional initializers stay valid.
  bool incremental = true;
};

class DataProcessor {
 public:
  // Counts land in `registry` until AttachObservability rebinds them.
  DataProcessor(db::Database& database, obs::MetricsRegistry& registry,
                DataProcessorOptions options = {})
      : db_(database), options_(options) {
    AttachObservability(registry, nullptr);
  }

  [[nodiscard]] const DataProcessorOptions& options() const {
    return options_;
  }
  void set_options(const DataProcessorOptions& o) { options_ = o; }

  // Decode + process the raw data of `app`; write feature_data rows.
  // Returns the number of feature values written. When the per-app
  // watermarks show nothing new and the app's features are already in the
  // database, the call is a cheap no-op. Safe to run concurrently for
  // *different* apps: row sets and accumulator states are disjoint per
  // app, and each call tallies its counts locally and flushes them once
  // into the per-thread sharded "processor.*" counters. Those sums do not
  // depend on order, so stats() after a parallel pass equals the serial one.
  Result<int> ProcessApp(const ApplicationRecord& app, SimTime now);

  // Upload-store-time hook: the server calls this when a raw row for `app`
  // is inserted, advancing the app's stored watermark so ProcessApp can
  // detect new work without probing the raw table at all.
  void NoteUploadStored(AppId app, std::int64_t raw_id);

  // Rebuild one app's watermarks after a snapshot restore or a reprime:
  // `stored_max` is its highest raw_id (the server scans raw_data for it);
  // the processed watermark is the cursor of the state a pass would use —
  // the cached accumulator, else a processor_state row that decodes, else 0.
  void RestoreProgress(const ApplicationRecord& app, std::int64_t stored_max);

  // Drop all in-memory watermarks and cached accumulator states. Called on
  // snapshot restore, before RestoreProgress repopulates; persisted
  // accumulator state reloads lazily from the processor_state table.
  void ResetRuntimeState();

  // Upsert every cached accumulator state that has ingested blobs into
  // processor_state, one encode per such app. Serial contexts only (no
  // ProcessApp may run concurrently); SensingServer::SnapshotState calls
  // it before serializing the database.
  void PersistState();

  // Fetch one computed feature value (for tests/visualization).
  [[nodiscard]] Result<double> FeatureValue(AppId app,
                                            const std::string& feature) const;

  // Assemble H for the given applications (same category, identical
  // feature lists). Row order follows `apps`; column order follows
  // `feature_specs`.
  [[nodiscard]] Result<rank::FeatureMatrix> BuildFeatureMatrix(
      const std::vector<ApplicationRecord>& apps,
      const std::vector<rank::FeatureSpec>& feature_specs) const;

  // Read from the "processor.*" counters, so it sees only counts made since
  // the last rebind (and since the registry's last Reset()).
  [[nodiscard]] DataProcessorStats stats() const;

  // Rebind the "processor.*" counters (per-thread sharded: ProcessApp runs
  // concurrently across apps) to `registry`; counts already made stay in
  // the old one. Trace events land on one stream per app. Those streams
  // MUST be pre-registered serially (StreamNameForApp) before any parallel
  // ProcessApp — the server facade does this in ProcessAllData — so stream
  // ids are thread-count invariant.
  void AttachObservability(obs::MetricsRegistry& registry,
                           obs::Tracer* tracer);
  [[nodiscard]] static std::string StreamNameForApp(AppId app) {
    return "processor:app:" + std::to_string(app.value());
  }

 private:
  // Stored vs processed raw_id high-water marks of one app. stored advances
  // at upload time (NoteUploadStored), processed after a ProcessApp pass;
  // stored > processed means there is new work.
  struct AppProgress {
    std::int64_t stored = 0;
    std::int64_t processed = 0;
  };

  // The app's processor_state row decoded, or nullopt when there is none
  // or it does not decode (logged as discarded).
  [[nodiscard]] std::optional<AppAccumulatorState> LoadPersisted(
      AppId app, std::size_t n_features) const;
  // Fetch the app's cached accumulator state, loading it from the
  // processor_state table (or creating it fresh) on first touch.
  AppAccumulatorState* GetOrLoadState(AppId app, std::size_t n_features);

  // Add one ProcessApp call's local tally to the registry counters.
  void FlushCounters(const DataProcessorStats& local);

  db::Database& db_;
  DataProcessorOptions options_;

  // Guards progress_ and the acc_ *map* (each mapped state is only touched
  // by the one ProcessApp call owning that app).
  std::mutex state_mu_;
  std::map<std::uint64_t, AppProgress> progress_;
  std::map<std::uint64_t, std::unique_ptr<AppAccumulatorState>> acc_;

  // Telemetry handles, bound from construction on (the tracer may be null).
  obs::Tracer* tracer_ = nullptr;
  struct ProcessorCounters {
    obs::Counter* blobs_decoded = nullptr;
    obs::Counter* blobs_rejected = nullptr;
    obs::Counter* tuples_processed = nullptr;
    obs::Counter* features_written = nullptr;
    obs::Counter* apps_skipped = nullptr;
  };
  ProcessorCounters obs_;
};

}  // namespace sor::server
