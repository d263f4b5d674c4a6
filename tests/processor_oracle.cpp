#include "processor_oracle.hpp"

#include <algorithm>
#include <map>

#include "codec/messages.hpp"
#include "common/stats.hpp"
#include "server/feature_accumulator.hpp"

namespace sor::server::oracle {
namespace {

using db::Row;
using db::Value;

// Decoded raw data of one application, grouped for feature extraction.
struct AppRawData {
  // Per sensor kind: every tuple uploaded for this app.
  std::map<SensorKind, std::vector<ReadingTuple>> by_kind;
  // GPS fixes grouped per task (each task is one phone walking the trail;
  // curvature must be computed along one phone's track, not a shuffle of
  // all phones).
  std::map<std::uint64_t, std::vector<ReadingTuple>> gps_by_task;
};

double ExtractFeature(const FeatureDef& def, const AppRawData& data,
                      const DataProcessorOptions& options,
                      std::size_t* n_samples) {
  *n_samples = 0;
  const auto it = data.by_kind.find(def.sensor);
  switch (def.method) {
    case ExtractMethod::kMeanOfAll: {
      if (it == data.by_kind.end()) return 0.0;
      std::vector<double> all;
      for (const ReadingTuple& t : it->second)
        all.insert(all.end(), t.values.begin(), t.values.end());
      *n_samples = all.size();
      if (options.reject_outliers)
        return RobustMean(all, options.outlier_z_threshold);
      return Mean(all);
    }
    case ExtractMethod::kMeanOfWindowStddev: {
      // §V-A: "an average of the standard deviations of all accelerometer's
      // readings within Δt".
      if (it == data.by_kind.end()) return 0.0;
      RunningStats outer;
      for (const ReadingTuple& t : it->second) {
        if (t.values.size() < 2) continue;
        outer.add(StdDev(t.values));
        *n_samples += t.values.size();
      }
      return outer.mean();
    }
    case ExtractMethod::kStddevOfWindowMeans: {
      // §V-A: "the standard deviation of averages of all altitude sensor
      // readings within Δt".
      if (it == data.by_kind.end()) return 0.0;
      RunningStats outer;
      for (const ReadingTuple& t : it->second) {
        if (t.values.empty()) continue;
        outer.add(Mean(t.values));
        *n_samples += t.values.size();
      }
      return outer.stddev();
    }
    case ExtractMethod::kGpsCurvature:
      // §V-A: method of [17], the shipped function. Its own reference is
      // DataProcessor.GpsCurvatureMatchesReferenceBitForBit.
      return GpsCurvatureOfTracks(data.gps_by_task, n_samples);
  }
  return 0.0;
}

}  // namespace

FullRecompute RecomputeFeatures(SensingServer& server, SimTime now) {
  const DataProcessorOptions& options = server.data_processor().options();
  const db::Table* raw = server.database().table(db::tables::kRawData);
  FullRecompute out;
  for (const ApplicationRecord& app : server.applications().All()) {
    // Decode every upload body for this app (the stored bodies are the
    // exact binary message payloads as received, §II-B).
    AppRawData data;
    raw->ForEachWhereEq("app_id", Value(app.id.value()), [&](const Row& row) {
      Result<Message> decoded =
          DecodeBody(MessageType::kSensedDataUpload, row[3].as_blob());
      if (!decoded.ok()) {
        ++out.blobs_rejected;
        return true;
      }
      ++out.blobs_decoded;
      const auto& upload = std::get<SensedDataUpload>(decoded.value());
      for (const ReadingTuple& t : upload.batches) {
        data.by_kind[t.kind].push_back(t);
        if (t.kind == SensorKind::kGps && !t.locations.empty())
          data.gps_by_task[upload.task.value()].push_back(t);
      }
      return true;
    });

    for (std::size_t j = 0; j < app.spec.features.size(); ++j) {
      const FeatureDef& def = app.spec.features[j];
      std::size_t n_samples = 0;
      const double value = ExtractFeature(def, data, options, &n_samples);
      // The processor's deterministic key per (app, feature).
      const std::uint64_t feature_id = app.id.value() * 1000 + j + 1;
      out.rows.push_back(
          {Value(feature_id), Value(app.id.value()),
           Value(app.spec.place.value()), Value(def.name), Value(value),
           Value(static_cast<std::int64_t>(n_samples)), Value(now.ms)});
    }
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const Row& a, const Row& b) {
              return a[0].as_int() < b[0].as_int();
            });
  return out;
}

}  // namespace sor::server::oracle
