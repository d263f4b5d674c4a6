#include "server/data_processor.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace sor::server {

namespace {

using db::Row;
using db::Table;
using db::Value;

// raw_data column positions (MakeSorSchema).
constexpr int kRawIdCol = 0;
constexpr int kRawBodyCol = 3;

}  // namespace

void DataProcessor::AttachObservability(obs::MetricsRegistry& registry,
                                        obs::Tracer* tracer) {
  tracer_ = tracer;
  const auto per_thread = obs::Sharding::kPerThread;
  obs_.blobs_decoded =
      &registry.counter("processor.blobs_decoded", per_thread);
  obs_.blobs_rejected =
      &registry.counter("processor.blobs_rejected", per_thread);
  obs_.tuples_processed =
      &registry.counter("processor.tuples_processed", per_thread);
  obs_.features_written =
      &registry.counter("processor.features_written", per_thread);
  obs_.apps_skipped = &registry.counter("processor.apps_skipped", per_thread);
}

DataProcessorStats DataProcessor::stats() const {
  DataProcessorStats s;
  s.blobs_decoded = obs_.blobs_decoded->value();
  s.blobs_rejected = obs_.blobs_rejected->value();
  s.tuples_processed = obs_.tuples_processed->value();
  s.features_written = obs_.features_written->value();
  s.apps_skipped = obs_.apps_skipped->value();
  return s;
}

void DataProcessor::NoteUploadStored(AppId app, std::int64_t raw_id) {
  std::lock_guard lock(state_mu_);
  AppProgress& p = progress_[app.value()];
  p.stored = std::max(p.stored, raw_id);
}

void DataProcessor::RestoreProgress(const ApplicationRecord& app,
                                    std::int64_t stored_max) {
  std::lock_guard lock(state_mu_);
  AppProgress& p = progress_[app.id.value()];
  p.stored = stored_max;
  // The processed watermark is the cursor of the state a pass would use:
  // the cached one, else the persisted one — decoded here for its cursor
  // only and not cached, so the pass loads whatever the table holds then.
  if (auto it = acc_.find(app.id.value()); it != acc_.end()) {
    p.processed = it->second->cursor;
  } else {
    const std::optional<AppAccumulatorState> persisted =
        LoadPersisted(app.id, app.spec.features.size());
    p.processed = persisted ? persisted->cursor : 0;
  }
}

void DataProcessor::ResetRuntimeState() {
  std::lock_guard lock(state_mu_);
  progress_.clear();
  acc_.clear();
}

std::optional<AppAccumulatorState> DataProcessor::LoadPersisted(
    AppId app, std::size_t n_features) const {
  const Table* persisted = db_.table(db::tables::kProcessorState);
  if (persisted == nullptr) return std::nullopt;
  const std::int64_t app_key = static_cast<std::int64_t>(app.value());
  const std::optional<Row> row = persisted->FindByKey(Value(app_key));
  if (!row) return std::nullopt;
  Result<AppAccumulatorState> decoded =
      AppAccumulatorState::Decode((*row)[2].as_blob(), n_features);
  if (decoded.ok()) return std::move(decoded).value();
  // A stale/mismatched snapshot blob: the caller falls back to an empty
  // state with cursor 0, which re-ingests the full history exactly once.
  SOR_LOG(kWarn, "processor",
          "discarding persisted state for app " << app.value() << ": "
                                                << decoded.error().str());
  return std::nullopt;
}

AppAccumulatorState* DataProcessor::GetOrLoadState(AppId app,
                                                   std::size_t n_features) {
  std::lock_guard lock(state_mu_);
  auto it = acc_.find(app.value());
  if (it != acc_.end()) return it->second.get();
  auto state = std::make_unique<AppAccumulatorState>(
      LoadPersisted(app, n_features).value_or(AppAccumulatorState{}));
  AppAccumulatorState* ptr = state.get();
  acc_.emplace(app.value(), std::move(state));
  return ptr;
}

void DataProcessor::PersistState() {
  std::lock_guard lock(state_mu_);
  Table* persisted = db_.table(db::tables::kProcessorState);
  if (persisted == nullptr) return;
  for (const auto& [app, state] : acc_) {
    if (state->cursor == 0) continue;  // nothing ingested, nothing to resume
    (void)persisted->Upsert({Value(static_cast<std::int64_t>(app)),
                             Value(state->cursor), Value(state->Encode())});
  }
}

Result<int> DataProcessor::ProcessApp(const ApplicationRecord& app,
                                      SimTime now) {
  Table* raw = db_.table(db::tables::kRawData);
  Table* features = db_.table(db::tables::kFeatureData);
  if (!raw || !features)
    return Error{Errc::kInternal, "raw/feature tables missing"};

  // "Periodically checks if there are any binary sensed data" (§II-B):
  // compare the app's stored/processed watermarks — an O(1) probe that
  // never touches the raw table. If nothing new arrived since the last
  // pass AND the app's features are already in the database, the whole
  // pass is a no-op.
  bool has_unprocessed = false;
  {
    std::lock_guard lock(state_mu_);
    if (auto it = progress_.find(app.id.value()); it != progress_.end())
      has_unprocessed = it->second.stored > it->second.processed;
  }
  if (!has_unprocessed) {
    bool features_exist = false;
    features->ForEachWhereEq("app_id", Value(app.id.value()),
                             [&](const Row&) {
                               features_exist = true;
                               return false;
                             });
    if (features_exist) {
      obs_.apps_skipped->Inc();
      return 0;
    }
    // No uploads yet but no features either: fall through and write the
    // zero-valued feature rows the ranker's matrix assembly expects.
  }

  // This app's stream was pre-registered serially (ProcessAllData), so the
  // find-by-name here is deterministic even on a worker thread.
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const obs::StreamId stream =
      tracing ? tracer_->RegisterStream(StreamNameForApp(app.id)) : 0;

  const std::vector<FeatureDef>& defs = app.spec.features;
  AppAccumulatorState* state = GetOrLoadState(app.id, defs.size());
  // Not incremental: every pass starts from cursor 0, a fresh accumulator
  // given every blob.
  if (!options_.incremental) *state = AppAccumulatorState{};

  // Fold in only the blobs past the cursor, in raw_id (arrival) order, so
  // order-dependent accumulators (Welford) match a decode-everything
  // recompute bit-for-bit. Counts tally locally and flush once at the end,
  // so per-app calls touch the shared counters once each. A pass writes
  // nothing to raw_data: the cursor is the processed watermark.
  DataProcessorStats local;
  // One upload, decoded into again for every blob: its tuples' vectors
  // keep their capacity, so the pass allocates only for a new largest blob.
  SensedDataUpload upload;
  raw->ForEachWhereEqFromPk(
      "app_id", Value(app.id.value()), Value(state->cursor),
      [&](const Row& row) {
        state->cursor = row[kRawIdCol].as_int();
        const db::Blob& body = row[kRawBodyCol].as_blob();
        if (Status decoded = DecodeUploadBody(body, upload); !decoded.ok()) {
          ++local.blobs_rejected;
          SOR_LOG(kWarn, "processor",
                  "rejecting malformed upload blob: "
                      << decoded.error().str());
          return true;
        }
        ++local.blobs_decoded;
        if (tracing) {
          tracer_->Emit(stream, now, obs::EventKind::kBlobProcessed,
                        upload.task.value(), upload.seq, app.id.value());
        }
        for (const ReadingTuple& t : upload.batches) {
          ++local.tuples_processed;
          state->Ingest(defs, upload.task.value(), t);
        }
        return true;
      });

  int written = 0;
  for (std::size_t j = 0; j < defs.size(); ++j) {
    std::size_t n_samples = 0;
    const double value =
        state->Finalize(j, defs[j], options_.reject_outliers,
                        options_.outlier_z_threshold, &n_samples);
    // Deterministic key per (app, feature): recomputation upserts.
    const std::uint64_t feature_id = app.id.value() * 1000 + j + 1;
    Result<db::RowId> r = features->Upsert(
        {Value(feature_id), Value(app.id.value()),
         Value(app.spec.place.value()), Value(defs[j].name), Value(value),
         Value(static_cast<std::int64_t>(n_samples)), Value(now.ms)});
    if (!r.ok()) {
      FlushCounters(local);
      return r.error();
    }
    ++local.features_written;
    ++written;
  }

  // The accumulator state stays in memory; it is written to
  // processor_state only at snapshot time (PersistState).
  {
    std::lock_guard lock(state_mu_);
    AppProgress& p = progress_[app.id.value()];
    p.processed = std::max(p.processed, state->cursor);
  }

  if (tracing) {
    tracer_->Emit(stream, now, obs::EventKind::kAppProcessed, app.id.value(),
                  static_cast<std::uint64_t>(written));
  }
  FlushCounters(local);
  return written;
}

void DataProcessor::FlushCounters(const DataProcessorStats& local) {
  obs_.blobs_decoded->Inc(local.blobs_decoded);
  obs_.blobs_rejected->Inc(local.blobs_rejected);
  obs_.tuples_processed->Inc(local.tuples_processed);
  obs_.features_written->Inc(local.features_written);
}

Result<double> DataProcessor::FeatureValue(AppId app,
                                           const std::string& feature) const {
  const Table* features = db_.table(db::tables::kFeatureData);
  Result<double> out = Error{
      Errc::kNotFound, "no feature '" + feature + "' for app " + app.str()};
  features->ForEachWhereEq("app_id", Value(app.value()), [&](const Row& row) {
    if (row[3].as_text() != feature) return true;
    out = row[4].as_double();
    return false;
  });
  return out;
}

Result<rank::FeatureMatrix> DataProcessor::BuildFeatureMatrix(
    const std::vector<ApplicationRecord>& apps,
    const std::vector<rank::FeatureSpec>& feature_specs) const {
  if (apps.empty())
    return Error{Errc::kInvalidArgument, "no applications"};
  std::vector<std::string> names;
  names.reserve(apps.size());
  for (const ApplicationRecord& a : apps) names.push_back(a.spec.place_name);

  rank::FeatureMatrix m(std::move(names), feature_specs);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (std::size_t j = 0; j < feature_specs.size(); ++j) {
      Result<double> v = FeatureValue(apps[i].id, feature_specs[j].name);
      if (!v.ok()) return v.error();
      m.set(static_cast<int>(i), static_cast<int>(j), v.value());
    }
  }
  return m;
}

}  // namespace sor::server
