#include "server/feature_accumulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/geo.hpp"

namespace sor::server {

namespace {

// HaversineMeters and PolylineCurvature (common/geo.hpp), given each
// point's cos(latitude) instead of computing it: the curvature loop takes
// one cosine per smoothed point where the geo.hpp pair took three. Every
// operation and its order are geo.hpp's, so the results are bit-identical
// (tests/test_server.cpp holds a reference built on geo.hpp).
double SegmentMeters(const GeoPoint& a, double cos_a, const GeoPoint& b,
                     double cos_b) {
  const double sin_dphi = std::sin(DegToRad(b.lat_deg - a.lat_deg) / 2);
  const double sin_dlam = std::sin(DegToRad(b.lon_deg - a.lon_deg) / 2);
  const double s =
      sin_dphi * sin_dphi + cos_a * cos_b * sin_dlam * sin_dlam;
  return 2.0 * kEarthRadiusMeters *
         std::atan2(std::sqrt(s), std::sqrt(1.0 - s));
}

LocalXY ProjectFrom(const GeoPoint& origin, double cos_origin,
                    const GeoPoint& b) {
  const double y =
      DegToRad(b.lat_deg - origin.lat_deg) * kEarthRadiusMeters;
  const double x = DegToRad(b.lon_deg - origin.lon_deg) * kEarthRadiusMeters *
                   cos_origin;
  return {x, y};
}

double VertexCurvature(const GeoPoint& a, const GeoPoint& b, double cos_b,
                       const GeoPoint& c) {
  const LocalXY u = ProjectFrom(b, cos_b, a);
  const LocalXY v = ProjectFrom(b, cos_b, c);
  const double lu = std::hypot(u.x_m, u.y_m);
  const double lv = std::hypot(v.x_m, v.y_m);
  if (lu < 1e-9 || lv < 1e-9) return 0.0;
  const double dot = (-u.x_m) * v.x_m + (-u.y_m) * v.y_m;
  double cosang = dot / (lu * lv);
  cosang = std::fmin(1.0, std::fmax(-1.0, cosang));
  return std::acos(cosang) / (0.5 * (lu + lv));
}

}  // namespace

double GpsCurvatureOfTracks(
    const std::map<std::uint64_t, std::vector<ReadingTuple>>& gps_by_task,
    std::size_t* n_samples) {
  RunningStats per_track;
  std::vector<const ReadingTuple*> tuples;
  std::vector<std::pair<std::int64_t, GeoPoint>> timed;
  std::vector<GeoPoint> smooth;
  std::vector<double> cos_lat;  // cos(latitude) of each smoothed point
  for (const auto& [task, stored] : gps_by_task) {
    // Order the tuples by window start so curvature follows the walk order;
    // stable, so a pre-sorted input (the full-recompute oracle) keeps its
    // order. Pointers, not copies: the stored tuples stay where they are.
    tuples.clear();
    std::size_t n_fixes = 0;
    for (const ReadingTuple& t : stored) {
      tuples.push_back(&t);
      n_fixes += t.locations.size();
    }
    std::stable_sort(tuples.begin(), tuples.end(),
                     [](const ReadingTuple* a, const ReadingTuple* b) {
                       return a->t < b->t;
                     });
    // Fixes within a tuple carry no individual timestamps on the wire, but
    // they are evenly spread over [t, t+Δt]; reconstruct their times, order
    // the whole track, then smooth against GPS noise.
    timed.clear();
    timed.reserve(n_fixes);
    for (const ReadingTuple* t : tuples) {
      const std::size_t n = t->locations.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t offset =
            n > 1 ? t->dt.ms * static_cast<std::int64_t>(i) /
                        static_cast<std::int64_t>(n - 1)
                  : 0;
        timed.emplace_back(t->t.ms + offset, t->locations[i]);
      }
    }
    std::stable_sort(
        timed.begin(), timed.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::size_t n = timed.size();
    if (n < 5) continue;
    const auto fix = [&](std::size_t i) -> const GeoPoint& {
      return timed[i].second;
    };

    // 3-point moving-average smoothing.
    smooth.resize(n);
    smooth.front() = fix(0);
    smooth.back() = fix(n - 1);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      smooth[i].lat_deg =
          (fix(i - 1).lat_deg + fix(i).lat_deg + fix(i + 1).lat_deg) / 3.0;
      smooth[i].lon_deg =
          (fix(i - 1).lon_deg + fix(i).lon_deg + fix(i + 1).lon_deg) / 3.0;
      smooth[i].alt_m =
          (fix(i - 1).alt_m + fix(i).alt_m + fix(i + 1).alt_m) / 3.0;
    }

    // Each smoothed point's cosine and each segment's length are computed
    // once: the vertex at i reads the segment before it (carried over) and
    // the one after it.
    cos_lat.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      cos_lat[i] = std::cos(DegToRad(smooth[i].lat_deg));
    RunningStats curv;
    double before = SegmentMeters(smooth[0], cos_lat[0], smooth[1], cos_lat[1]);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double after =
          SegmentMeters(smooth[i], cos_lat[i], smooth[i + 1], cos_lat[i + 1]);
      // Skip near-stationary vertices: angle is undefined noise there.
      const bool stationary = before < 5.0 || after < 5.0;
      before = after;
      if (stationary) continue;
      curv.add(
          VertexCurvature(smooth[i - 1], smooth[i], cos_lat[i], smooth[i + 1]));
    }
    if (curv.count() == 0) continue;
    *n_samples += n;
    per_track.add(curv.mean() * 1000.0);
  }
  return per_track.mean();
}

void AppAccumulatorState::Ingest(const std::vector<FeatureDef>& defs,
                                 std::uint64_t task,
                                 const ReadingTuple& tuple) {
  if (features.size() < defs.size()) features.resize(defs.size());
  bool needs_gps = false;
  for (std::size_t j = 0; j < defs.size(); ++j) {
    const FeatureDef& def = defs[j];
    if (def.method == ExtractMethod::kGpsCurvature) {
      needs_gps = true;
      continue;  // GPS tails are shared, folded once below
    }
    if (def.sensor != tuple.kind) continue;
    FeatureAccState& f = features[j];
    switch (def.method) {
      case ExtractMethod::kMeanOfAll:
        f.values.insert(f.values.end(), tuple.values.begin(),
                        tuple.values.end());
        break;
      case ExtractMethod::kMeanOfWindowStddev:
        if (tuple.values.size() < 2) break;
        f.window.add(StdDev(tuple.values));
        f.n_samples += tuple.values.size();
        break;
      case ExtractMethod::kStddevOfWindowMeans:
        if (tuple.values.empty()) break;
        f.window.add(Mean(tuple.values));
        f.n_samples += tuple.values.size();
        break;
      case ExtractMethod::kGpsCurvature:
        break;  // unreachable, handled above
    }
  }
  if (needs_gps && tuple.kind == SensorKind::kGps && !tuple.locations.empty())
    gps_by_task[task].push_back(tuple);
}

double AppAccumulatorState::Finalize(std::size_t j, const FeatureDef& def,
                                     bool reject_outliers, double z_threshold,
                                     std::size_t* n_samples) const {
  *n_samples = 0;
  if (def.method == ExtractMethod::kGpsCurvature)
    return GpsCurvatureOfTracks(gps_by_task, n_samples);
  if (j >= features.size()) return 0.0;  // app with zero ingested blobs
  const FeatureAccState& f = features[j];
  switch (def.method) {
    case ExtractMethod::kMeanOfAll:
      *n_samples = f.values.size();
      if (reject_outliers) return RobustMean(f.values, z_threshold);
      return Mean(f.values);
    case ExtractMethod::kMeanOfWindowStddev:
      *n_samples = static_cast<std::size_t>(f.n_samples);
      return f.window.mean();
    case ExtractMethod::kStddevOfWindowMeans:
      *n_samples = static_cast<std::size_t>(f.n_samples);
      return f.window.stddev();
    case ExtractMethod::kGpsCurvature:
      break;  // handled above
  }
  return 0.0;
}

namespace {
constexpr std::uint8_t kStateVersion = 1;
std::atomic<std::uint64_t> g_encodes{0};
}  // namespace

std::uint64_t AppAccumulatorState::encodes() { return g_encodes.load(); }

Bytes AppAccumulatorState::Encode() const {
  g_encodes.fetch_add(1, std::memory_order_relaxed);
  ByteWriter w;
  w.u8(kStateVersion);
  w.svarint(cursor);
  w.varint(features.size());
  for (const FeatureAccState& f : features) {
    w.varint(f.values.size());
    for (double v : f.values) w.f64(v);
    w.varint(f.window.count());
    w.f64(f.window.mean());
    w.f64(f.window.m2());
    w.f64(f.window.min());
    w.f64(f.window.max());
    w.varint(f.n_samples);
  }
  w.varint(gps_by_task.size());
  for (const auto& [task, tuples] : gps_by_task) {
    w.varint(task);
    w.varint(tuples.size());
    for (const ReadingTuple& t : tuples) EncodeReadingTuple(t, w);
  }
  return w.take();
}

Result<AppAccumulatorState> AppAccumulatorState::Decode(
    std::span<const std::uint8_t> bytes, std::size_t expected_features) {
  ByteReader r(bytes);
  if (r.u8() != kStateVersion)
    return Error{Errc::kDecodeError, "processor state: bad version"};
  AppAccumulatorState s;
  s.cursor = r.svarint();
  const std::uint64_t n_features = r.varint();
  if (!r.ok() || n_features > expected_features)
    return Error{Errc::kDecodeError, "processor state: feature-list mismatch"};
  s.features.resize(n_features);
  for (FeatureAccState& f : s.features) {
    const std::uint64_t n_values = r.varint();
    // A count the bytes left cannot hold fails the decode, not the reserve.
    if (!r.ok() || n_values > r.remaining() / 8) {
      r.invalidate();
      break;
    }
    f.values.reserve(n_values);
    for (std::uint64_t i = 0; i < n_values && r.ok(); ++i)
      f.values.push_back(r.f64());
    const auto wn = static_cast<std::size_t>(r.varint());
    const double mean = r.f64();
    const double m2 = r.f64();
    const double min = r.f64();
    const double max = r.f64();
    f.window = RunningStats::FromMoments(wn, mean, m2, min, max);
    f.n_samples = r.varint();
  }
  const std::uint64_t n_tasks = r.varint();
  for (std::uint64_t i = 0; i < n_tasks && r.ok(); ++i) {
    const std::uint64_t task = r.varint();
    const std::uint64_t n_tuples = r.varint();
    // An encoded tuple is at least 5 bytes (kind, t, dt, two counts).
    if (n_tuples > r.remaining() / 5) {
      r.invalidate();
      break;
    }
    auto& tuples = s.gps_by_task[task];
    tuples.reserve(n_tuples);
    for (std::uint64_t k = 0; k < n_tuples && r.ok(); ++k)
      tuples.push_back(DecodeReadingTuple(r));
  }
  if (Status st = r.finish(); !st.ok())
    return Error{Errc::kDecodeError, "processor state: " + st.str()};
  return s;
}

}  // namespace sor::server
