// Perf-regression tests: host-independent *operation counts*, not wall
// time. These pin the incremental data path's complexity guarantees —
// each blob is decoded exactly once per campaign (O(uploads), not
// O(uploads × passes)), the upload/process hot path never walks a full
// table, accumulator state survives snapshot/restore, and the streaming
// accumulators stay bit-identical to the decode-everything recompute.
// tools/ci.sh runs these as its perf stage (ctest -R 'Perf\.').
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include <thread>

#include "codec/barcode.hpp"
#include "codec/bytes.hpp"
#include "codec/crc32.hpp"
#include "common/features.hpp"
#include "core/fleet.hpp"
#include "core/system.hpp"
#include "db/storage_faults.hpp"
#include "obs/metrics.hpp"
#include "phone/frontend.hpp"
#include "phone/task_instance.hpp"
#include "processor_oracle.hpp"
#include "sensors/providers.hpp"
#include "server/server.hpp"
#include "world/phone_agent.hpp"
#include "world/scenarios.hpp"

namespace sor::server {
namespace {

// A coffee-shop app (all kMeanOfAll) and a trail app (window statistics +
// GPS curvature) exercise every accumulator kind between them.
ApplicationSpec PerfAppSpec(bool trail) {
  ApplicationSpec spec;
  spec.creator = "perf";
  spec.place = PlaceId{11};
  spec.place_name = trail ? "Perf Trail" : "Perf Cafe";
  spec.location = GeoPoint{43.0, -76.0, 100.0};
  spec.radius_m = 80.0;
  spec.script = "local xs = get_noise_readings(3)";
  spec.features = trail ? HikingTrailFeatures() : CoffeeShopFeatures();
  spec.period = SimInterval{SimTime{0}, SimTime{600'000}};
  spec.n_instants = 60;
  spec.sigma_s = 10.0;
  return spec;
}

// Schedule distributions go to this endpoint; we only need it to exist.
class AckPhone final : public net::Endpoint {
 public:
  AckPhone(net::LoopbackNetwork& net, const std::string& name)
      : net_(net), name_(name) {
    net_.Register(name_, this);
  }
  ~AckPhone() override { net_.Unregister(name_); }

  Bytes HandleFrame(std::span<const std::uint8_t>) override {
    return EncodeFrame(Ack{});
  }

  net::LoopbackNetwork& net_;
  std::string name_;
};

// One server with a deployed app and one participating phone, ready to
// accept uploads for `task`.
struct PerfFixture {
  explicit PerfFixture(bool trail = false, int budget = 100) {
    net.set_clock(&clock);
    Result<BarcodePayload> barcode =
        server.DeployApplication(PerfAppSpec(trail));
    EXPECT_TRUE(barcode.ok()) << barcode.error().str();
    app = barcode.value().app;
    user = server.users().RegisterUser("perf-user", Token{"tok-p"}).value();
    phone = std::make_unique<AckPhone>(net, "phone:tok-p");
    ParticipationRequest req;
    req.user = user;
    req.token = Token{"tok-p"};
    req.app = app;
    req.location = GeoPoint{43.0, -76.0, 100};
    req.budget = budget;
    Result<Message> reply = net.Send("server", req);
    EXPECT_TRUE(reply.ok()) << reply.error().str();
    task = std::get<ParticipationReply>(reply.value()).task;
  }

  // One upload with a noise + temperature tuple, contents varied by i so
  // every round changes the features.
  void SendReadings(int i) { SendReadings(i, task, user); }
  void SendReadings(int i, TaskId as_task, UserId as_user) {
    SensedDataUpload upload;
    upload.task = as_task;
    upload.user = as_user;
    ReadingTuple noise;
    noise.kind = SensorKind::kMicrophone;
    noise.t = SimTime{(i + 1) * 1'000};
    noise.dt = SimDuration{1'000};
    noise.values = {0.2 + 0.01 * i, 0.4};
    ReadingTuple temp;
    temp.kind = SensorKind::kDroneTemperature;
    temp.t = SimTime{(i + 1) * 1'000};
    temp.dt = SimDuration{1'000};
    temp.values = {70.0 + i, 72.0};
    upload.batches = {noise, temp};
    Result<Message> reply = net.Send("server", upload);
    EXPECT_TRUE(reply.ok()) << reply.error().str();
  }

  // Trail payload: accelerometer + barometer windows and a GPS fix batch,
  // so the window accumulators and the per-task GPS tail all advance.
  void SendTrailReadings(int i) {
    SensedDataUpload upload;
    upload.task = task;
    upload.user = user;
    ReadingTuple accel;
    accel.kind = SensorKind::kAccelerometer;
    accel.t = SimTime{(i + 1) * 1'000};
    accel.dt = SimDuration{1'000};
    accel.values = {9.0 - i, 11.0 + i};
    ReadingTuple alt;
    alt.kind = SensorKind::kBarometer;
    alt.t = SimTime{(i + 1) * 1'000};
    alt.dt = SimDuration{1'000};
    alt.values = {100.0 + 2.0 * i, 100.0 + 2.0 * i};
    ReadingTuple gps;
    gps.kind = SensorKind::kGps;
    gps.t = SimTime{(i + 1) * 10'000};
    gps.dt = SimDuration{200'000};
    double heading = 0.0, x = 0.0, y = 0.0, sign = 1.0;
    for (int k = 0; k < 12; ++k) {
      gps.locations.push_back(OffsetMeters(GeoPoint{43.0, -76.0, 100.0},
                                           x + 500.0 * i, y));
      gps.values.push_back(100.0);
      heading += sign * 0.2;
      sign = -sign;
      x += 20.0 * std::cos(heading);
      y += 20.0 * std::sin(heading);
    }
    upload.batches = {accel, alt, gps};
    Result<Message> reply = net.Send("server", upload);
    EXPECT_TRUE(reply.ok()) << reply.error().str();
  }

  [[nodiscard]] std::vector<db::Row> FeatureRows() {
    return server.database()
        .table(db::tables::kFeatureData)
        ->ScanOrderedBy("feature_id");
  }

  SimClock clock;
  net::LoopbackNetwork net;
  SensingServer server{ServerConfig{}, net, clock};
  std::unique_ptr<AckPhone> phone;
  AppId app;
  UserId user;
  TaskId task;
};

// The full-recompute oracle's feature rows for `f`'s raw data, as a pass
// at the fixture's current time would write them.
std::vector<db::Row> OracleRows(PerfFixture& f) {
  return oracle::RecomputeFeatures(f.server, f.clock.now()).rows;
}

// --- the O(uploads) decode guarantee ---------------------------------------

TEST(Perf, BlobsDecodedIsOUploads) {
  PerfFixture f;
  obs::MetricsRegistry registry;
  f.server.AttachObservability(&registry, nullptr);
  obs::Counter& decoded = registry.counter("processor.blobs_decoded");
  obs::Counter& skipped = registry.counter("processor.apps_skipped");

  // Three rounds of (2 uploads, process): each pass decodes only the new
  // blobs, never re-reads history. 6 uploads -> 6 decodes, total.
  int uploads = 0;
  for (int round = 0; round < 3; ++round) {
    f.SendReadings(uploads++);
    f.SendReadings(uploads++);
    ASSERT_TRUE(f.server.ProcessAllData().ok());
    EXPECT_EQ(decoded.value(), static_cast<std::uint64_t>(uploads))
        << "round " << round << " re-decoded already-processed blobs";
  }

  // Passes with no new data decode nothing: the watermark probe skips the
  // app without touching the raw table.
  for (int pass = 0; pass < 4; ++pass)
    ASSERT_TRUE(f.server.ProcessAllData().ok());
  EXPECT_EQ(decoded.value(), 6u);
  EXPECT_EQ(skipped.value(), 4u);
  EXPECT_EQ(f.server.data_processor().stats().blobs_decoded, 6u);
}

// --- hot-path table access ------------------------------------------------

TEST(Perf, UploadAndProcessAvoidFullScans) {
  PerfFixture f;
  obs::MetricsRegistry registry;
  f.server.AttachObservability(&registry, nullptr);
  obs::Counter& full_scans = registry.counter("db.full_scans");
  const std::uint64_t base = full_scans.value();

  // Storing an upload is pure point access: participation lookup by key,
  // budget read-modify-write in place, raw insert, watermark bump.
  f.SendReadings(0);
  f.SendReadings(1);
  EXPECT_EQ(full_scans.value(), base);

  // One processing pass walks the applications table once (enumerating
  // deployed apps is a legitimate full scan) and nothing else: new blobs
  // come through the app_id index from the app's cursor.
  ASSERT_TRUE(f.server.ProcessAllData().ok());
  EXPECT_EQ(full_scans.value(), base + 1);

  // A skip pass costs the same single enumeration scan.
  ASSERT_TRUE(f.server.ProcessAllData().ok());
  EXPECT_EQ(full_scans.value(), base + 2);

  // Sanity: the counter is live — a deliberate raw-table scan bumps it.
  (void)f.server.database().table(db::tables::kRawData)->Scan();
  EXPECT_EQ(full_scans.value(), base + 3);
}

// --- incremental == full, multi-pass --------------------------------------

TEST(Perf, IncrementalMatchesFullRecomputeLockstep) {
  PerfFixture inc(/*trail=*/true);

  // Interleave uploads and processing passes; after every pass the feature
  // rows must be bit-for-bit identical — same values, same n_samples, same
  // feature ids — even though the incremental side only ever sees the new
  // blobs while the oracle re-decodes everything from scratch.
  int i = 0;
  for (int round = 0; round < 4; ++round) {
    inc.SendTrailReadings(i);
    ++i;
    if (round % 2 == 1) {  // some passes see two new uploads, some one
      inc.SendTrailReadings(i);
      ++i;
    }
    ASSERT_TRUE(inc.server.ProcessAllData().ok());
    const std::vector<db::Row> got = inc.FeatureRows();
    const std::vector<db::Row> want = OracleRows(inc);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r)
      EXPECT_EQ(got[r], want[r]) << "round " << round << " row " << r;
  }
}

// --- malformed blobs ------------------------------------------------------

TEST(Perf, CorruptBlobRejectedIdenticallyToFullPath) {
  // A blob that fails body decoding (stored corrupt, past the transport
  // CRC) must be counted rejected and skipped by BOTH paths, leaving the
  // same features behind. Inject it directly into the raw table the way a
  // torn write would leave it, then advance the watermark by hand.
  auto run = [](bool incremental) {
    PerfFixture f;
    f.SendReadings(0);
    db::Table* raw = f.server.database().table(db::tables::kRawData);
    const std::int64_t bad_id = raw->MaxPrimaryKey()->as_int() + 1;
    EXPECT_TRUE(raw->Insert({db::Value(bad_id), db::Value(f.task.value()),
                             db::Value(f.app.value()),
                             db::Value(db::Blob{0xde, 0xad, 0xbe, 0xef}),
                             db::Value(f.clock.now().ms),
                             db::Value(std::int64_t{0})})
                    .ok());
    f.server.data_processor().NoteUploadStored(f.app, bad_id);
    if (!incremental) {
      const oracle::FullRecompute full =
          oracle::RecomputeFeatures(f.server, f.clock.now());
      EXPECT_EQ(full.blobs_rejected, 1u);
      return full.rows;
    }
    EXPECT_TRUE(f.server.ProcessAllData().ok());
    EXPECT_EQ(f.server.data_processor().stats().blobs_rejected, 1u);
    return f.FeatureRows();
  };

  const std::vector<db::Row> got = run(true);
  const std::vector<db::Row> want = run(false);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t r = 0; r < want.size(); ++r) EXPECT_EQ(got[r], want[r]);
}

// --- accumulator persistence ----------------------------------------------

TEST(Perf, AccumulatorStateSurvivesSnapshotRestore) {
  // Process half the data, snapshot mid-campaign, restore into a fresh
  // server, feed the second half to both — the restored accumulators must
  // continue the stream exactly where the originals left off, and both
  // must match the full-recompute oracle fed the same campaign.
  PerfFixture live(/*trail=*/true);
  live.SendTrailReadings(0);
  live.SendTrailReadings(1);
  ASSERT_TRUE(live.server.ProcessAllData().ok());
  const Bytes snapshot = live.server.SnapshotState();

  PerfFixture restored(/*trail=*/true);
  ASSERT_TRUE(restored.server.RestoreFromSnapshot(snapshot).ok());

  for (PerfFixture* f : {&live, &restored}) {
    f->SendTrailReadings(2);
    f->SendTrailReadings(3);
    ASSERT_TRUE(f->server.ProcessAllData().ok());
  }

  PerfFixture oracle(/*trail=*/true);
  for (int i = 0; i < 4; ++i) oracle.SendTrailReadings(i);

  const std::vector<db::Row> want = OracleRows(oracle);
  ASSERT_FALSE(want.empty());
  for (PerfFixture* f : {&live, &restored}) {
    const std::vector<db::Row> got = f->FeatureRows();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r)
      EXPECT_EQ(got[r], want[r]) << "row " << r;
  }

  // The restored server kept decoding incrementally: only the two new
  // blobs were read after restore, not the whole history again.
  // (live decoded all 4; restored decoded 2 post-restore.)
  EXPECT_EQ(restored.server.data_processor().stats().blobs_decoded, 2u);
}

TEST(Perf, ProcessingPassPersistsNoAccumulatorState) {
  // Passes keep the accumulators in memory; only a snapshot encodes them,
  // once per app that has ingested blobs.
  PerfFixture f(/*trail=*/true);
  // A second app that never receives an upload: its first pass writes the
  // zero-valued rows and caches an empty state, which is not persisted.
  ASSERT_TRUE(f.server.DeployApplication(PerfAppSpec(false)).ok());
  const db::Table* persisted =
      f.server.database().table(db::tables::kProcessorState);
  const std::uint64_t before = AppAccumulatorState::encodes();
  for (int i = 0; i < 3; ++i) {
    f.SendTrailReadings(i);
    ASSERT_TRUE(f.server.ProcessAllData().ok());
  }
  ASSERT_TRUE(f.server.ProcessAllData().ok());  // a pass with nothing new
  EXPECT_EQ(AppAccumulatorState::encodes() - before, 0u);
  EXPECT_EQ(persisted->size(), 0u);

  (void)f.server.SnapshotState();
  EXPECT_EQ(AppAccumulatorState::encodes() - before, 1u);
  EXPECT_EQ(persisted->size(), 1u);
}

TEST(Perf, ProcessingPassWritesNoRawRows) {
  // A pass reads raw_data and writes nothing back: each app's accumulator
  // cursor is its processed watermark, so no per-row flag is flipped.
  PerfFixture f(/*trail=*/true);
  const AppId cafe = f.server.DeployApplication(PerfAppSpec(false)).value().app;
  const UserId user2 =
      f.server.users().RegisterUser("perf-user-2", Token{"tok-q"}).value();
  AckPhone phone2(f.net, "phone:tok-q");
  ParticipationRequest req;
  req.user = user2;
  req.token = Token{"tok-q"};
  req.app = cafe;
  req.location = GeoPoint{43.0, -76.0, 100};
  req.budget = 100;
  Result<Message> reply = f.net.Send("server", req);
  ASSERT_TRUE(reply.ok()) << reply.error().str();
  const TaskId task2 = std::get<ParticipationReply>(reply.value()).task;

  const db::Table* raw = f.server.database().table(db::tables::kRawData);
  const db::Table* features =
      f.server.database().table(db::tables::kFeatureData);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      f.SendTrailReadings(3 * round + i);
      f.SendReadings(3 * round + i, task2, user2);
    }
    const std::uint64_t raw_before = raw->writes();
    const std::uint64_t features_before = features->writes();
    ASSERT_TRUE(f.server.ProcessAllData().ok());
    EXPECT_EQ(raw->writes() - raw_before, 0u) << "round " << round;
    // The counter is live: the pass did write its feature rows.
    EXPECT_GT(features->writes(), features_before);
  }
  // Both apps' uploads were stored (6 raw inserts each) and processed.
  EXPECT_EQ(raw->writes(), 12u);
  EXPECT_EQ(f.server.data_processor().stats().blobs_decoded, 12u);
}

TEST(Perf, NonIncrementalPassesReingestEveryBlob) {
  // DataProcessorOptions::incremental = false resets each app's
  // accumulator to cursor 0 before every pass: the history is decoded
  // again each time, and the rows equal the incremental ones.
  PerfFixture inc(/*trail=*/true);
  PerfFixture reset(/*trail=*/true);
  DataProcessorOptions opts = reset.server.data_processor().options();
  opts.incremental = false;
  reset.server.data_processor().set_options(opts);
  std::uint64_t history = 0;
  std::uint64_t decoded = 0;
  for (int i = 0; i < 3; ++i) {
    inc.SendTrailReadings(i);
    reset.SendTrailReadings(i);
    ASSERT_TRUE(inc.server.ProcessAllData().ok());
    ASSERT_TRUE(reset.server.ProcessAllData().ok());
    decoded += ++history;
    EXPECT_EQ(reset.server.data_processor().stats().blobs_decoded, decoded);
    EXPECT_EQ(reset.FeatureRows(), inc.FeatureRows()) << "pass " << i;
  }
  EXPECT_EQ(inc.server.data_processor().stats().blobs_decoded, history);
}

TEST(Perf, ReprimeKeepsAccumulatorState) {
  // A storage-failure reprime rebuilds the watermarks from the intact
  // tables but keeps the cached accumulators, which hold only what passes
  // folded in from committed rows: the next pass decodes only new blobs,
  // although no state row was ever persisted to reload from.
  PerfFixture f(/*trail=*/true);
  OverloadConfig cfg;
  cfg.reprime_after_failures = 1;
  f.server.set_overload(cfg);
  f.SendTrailReadings(0);
  f.SendTrailReadings(1);
  ASSERT_TRUE(f.server.ProcessAllData().ok());

  db::StorageFaultInjector faults;
  db::StorageFaultRule rule;
  rule.table = db::tables::kRawData;
  rule.fail_next = 1;
  faults.AddRule(rule);
  f.server.database().AttachStorageFaults(&faults);
  f.SendTrailReadings(2);  // the write fails, and the server reprimes
  f.server.database().AttachStorageFaults(nullptr);
  ASSERT_EQ(f.server.stats().reprimes, 1u);

  f.clock.advance(SimDuration{10'000});
  f.SendTrailReadings(2);  // the retry lands
  f.SendTrailReadings(3);
  ASSERT_TRUE(f.server.ProcessAllData().ok());
  EXPECT_EQ(f.server.data_processor().stats().blobs_decoded, 4u);

  PerfFixture oracle(/*trail=*/true);
  for (int i = 0; i < 4; ++i) oracle.SendTrailReadings(i);
  oracle.clock.advance(SimDuration{10'000});
  const std::vector<db::Row> want = OracleRows(oracle);
  const std::vector<db::Row> got = f.FeatureRows();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r)
    EXPECT_EQ(got[r], want[r]) << "row " << r;
}

TEST(Perf, OversizedStateCountDiscardedAndReingested) {
  // A processor_state row whose counts claim more entries than its bytes
  // hold must fail the state decode, not the allocation: the restored
  // server logs the discard, re-ingests the app's history once and writes
  // the features of the full recompute.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  ByteWriter huge_values;  // version, cursor, 1 feature of kHuge readings
  huge_values.u8(1);
  huge_values.svarint(2);
  huge_values.varint(1);
  huge_values.varint(kHuge);
  ByteWriter huge_tuples;  // no features, 1 task of kHuge GPS tuples
  huge_tuples.u8(1);
  huge_tuples.svarint(2);
  huge_tuples.varint(0);
  huge_tuples.varint(1);
  huge_tuples.varint(7);
  huge_tuples.varint(kHuge);

  PerfFixture oracle(/*trail=*/true);
  for (int i = 0; i < 4; ++i) oracle.SendTrailReadings(i);
  const std::vector<db::Row> want = OracleRows(oracle);
  ASSERT_FALSE(want.empty());

  for (const Bytes& hostile : {huge_values.take(), huge_tuples.take()}) {
    PerfFixture live(/*trail=*/true);
    live.SendTrailReadings(0);
    live.SendTrailReadings(1);
    ASSERT_TRUE(live.server.ProcessAllData().ok());
    PerfFixture restored(/*trail=*/true);
    ASSERT_TRUE(restored.server.RestoreFromSnapshot(live.server.SnapshotState())
                    .ok());
    db::Table* persisted =
        restored.server.database().table(db::tables::kProcessorState);
    const std::optional<db::Row> row = persisted->FindByKey(
        db::Value(static_cast<std::int64_t>(restored.app.value())));
    ASSERT_TRUE(row.has_value());
    ASSERT_TRUE(
        persisted->Upsert({(*row)[0], (*row)[1], db::Value(hostile)}).ok());

    restored.SendTrailReadings(2);
    restored.SendTrailReadings(3);
    testing::internal::CaptureStderr();
    const Result<int> processed = restored.server.ProcessAllData();
    const std::string log = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(processed.ok());
    EXPECT_NE(log.find("discarding persisted state"), std::string::npos)
        << log;
    EXPECT_EQ(restored.server.data_processor().stats().blobs_decoded, 4u);
    const std::vector<db::Row> got = restored.FeatureRows();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r)
      EXPECT_EQ(got[r], want[r]) << "row " << r;
  }
}

// --- the O(delta) replanning guarantees -------------------------------------

// One app, a fleet of AckPhones joining one at a time — each join triggers
// an inline reschedule, so the scheduler's counters expose the per-join
// cost directly.
struct FleetFixture {
  explicit FleetFixture(bool incremental) {
    net.set_clock(&clock);
    SchedulerOptions opts;
    opts.incremental = incremental;
    server.scheduler().set_options(opts);
    Result<BarcodePayload> barcode =
        server.DeployApplication(PerfAppSpec(false));
    EXPECT_TRUE(barcode.ok()) << barcode.error().str();
    app = barcode.value().app;
  }

  // Returns the joined task and records its user for Leave.
  TaskId Join(int i) {
    const std::string token = "tok-f" + std::to_string(i);
    UserId user =
        server.users().RegisterUser("user" + std::to_string(i), Token{token})
            .value();
    phones.push_back(std::make_unique<AckPhone>(net, "phone:" + token));
    ParticipationRequest req;
    req.user = user;
    req.token = Token{token};
    req.app = app;
    req.location = GeoPoint{43.0, -76.0, 100};
    req.budget = 10;
    Result<Message> reply = net.Send("server", req);
    EXPECT_TRUE(reply.ok()) << reply.error().str();
    if (!reply.ok()) return TaskId{};
    const TaskId task = std::get<ParticipationReply>(reply.value()).task;
    user_of[task.value()] = user;
    return task;
  }

  void Leave(TaskId task) {
    LeaveNotification note;
    note.task = task;
    note.user = user_of.at(task.value());
    note.time = clock.now();
    Result<Message> reply = net.Send("server", note);
    EXPECT_TRUE(reply.ok()) << reply.error().str();
  }

  SimClock clock;
  net::LoopbackNetwork net;
  SensingServer server{ServerConfig{}, net, clock};
  std::vector<std::unique_ptr<AckPhone>> phones;
  std::map<std::uint64_t, UserId> user_of;  // task → user
  AppId app;
};

TEST(Perf, JoinGainEvaluationsAreODeltaNotOFleet) {
  constexpr int kFleet = 24;
  // Incremental: each join warm-starts against the residual coverage, so
  // the marginal cost of the LAST join is in the same ballpark as the
  // first — it does not grow with the fleet.
  FleetFixture inc(/*incremental=*/true);
  std::vector<std::uint64_t> deltas;
  std::uint64_t prev = 0;
  for (int i = 0; i < kFleet; ++i) {
    inc.Join(i);
    const std::uint64_t total = inc.server.scheduler().stats().gain_evaluations;
    deltas.push_back(total - prev);
    prev = total;
  }
  EXPECT_LE(deltas.back(), 4 * deltas.front())
      << "per-join gain evaluations grew with fleet size";
  // Absolute ceiling: one join costs O(window instants + budget pops) —
  // here ≪ 5 × n_instants (300). The pre-tentpole full replan re-placed
  // every member's budget, ≥ fleet × n_instants probes by join 24 (1440+),
  // so any regression back to O(fleet) work trips this immediately.
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_LT(deltas[i], 300u) << "join " << i;
  }
}

TEST(Perf, SchedulesSentAndRowsAreOJoinsNotOFleetSquared) {
  constexpr int kFleet = 16;
  FleetFixture f(/*incremental=*/true);
  for (int i = 0; i < kFleet; ++i) f.Join(i);
  const SchedulerStats& stats = f.server.scheduler().stats();
  // Plan-delta distribution: each join pushed exactly ONE schedule (to the
  // joiner); nobody else's unchanged plan was re-sent. The old full
  // redistribution sent O(fleet) per join — O(fleet²) total.
  EXPECT_EQ(stats.schedules_distributed, static_cast<std::uint64_t>(kFleet));
  EXPECT_EQ(stats.distribution_failures, 0u);
  // Durable plan state: ONE schedules row per task, updated in place —
  // not one new row per active user per replan.
  EXPECT_EQ(f.server.database().table(db::tables::kSchedules)->size(),
            static_cast<std::size_t>(kFleet));
}

// Rows copied out of the database by one join or one leave. The change-fed
// scheduler reads a constant number of keyed rows per event (the app, the
// user, the changed tasks: 3–4 today); diffing the whole participation set
// copied every row the app ever had, O(fleet) per event. tools/ci.sh holds
// scale_phones' campaign-wide rows_materialized_per_join (joins, leaves and
// uploads together) under the same cap at 10k phones.
constexpr std::uint64_t kMaxRowsMaterializedPerEvent = 32;

TEST(Perf, JoinAndLeaveMaterializeO1Rows) {
  struct EventRows {
    std::uint64_t last_join = 0;
    std::uint64_t first_leave = 0;  // the whole fleet still present
    std::uint64_t last_leave = 0;   // every earlier task already finished
  };
  auto measure = [](int fleet) {
    FleetFixture f(/*incremental=*/true);
    obs::MetricsRegistry registry;
    f.server.AttachObservability(&registry, nullptr);
    const obs::Counter& rows = registry.counter("db.rows_materialized");
    std::vector<TaskId> tasks;
    EventRows out;
    for (int i = 0; i < fleet; ++i) {
      const std::uint64_t before = rows.value();
      tasks.push_back(f.Join(i));
      out.last_join = rows.value() - before;
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const std::uint64_t before = rows.value();
      f.Leave(tasks[i]);
      const std::uint64_t n = rows.value() - before;
      if (i == 0) out.first_leave = n;
      out.last_leave = n;
    }
    return out;
  };
  const EventRows small = measure(20);
  const EventRows large = measure(400);
  EXPECT_EQ(large.last_join, small.last_join);
  EXPECT_EQ(large.first_leave, small.first_leave);
  EXPECT_EQ(large.last_leave, small.last_leave);
  for (std::uint64_t n : {large.last_join, large.first_leave,
                          large.last_leave}) {
    EXPECT_GT(n, 0u);  // the counter is live
    EXPECT_LE(n, kMaxRowsMaterializedPerEvent);
  }
}

// --- the phone's sensing tick --------------------------------------------

TEST(Perf, ScriptExecutionsBuildTheHostTableOncePerThread) {
  // The host-function table (stdlib, introspection and one acquisition
  // function per sensor) is built once per thread and re-pointed at each
  // execution; rebuilding it per scheduled instant was the phone tick's
  // largest cost. Two tasks on two phones share the fresh thread's table.
  constexpr int kInstants = 50;
  std::uint64_t builds = 0;
  std::uint64_t executions = 0;
  std::thread worker([&] {
    struct ConstantEnvironment final : sensors::SensorEnvironment {
      double Sample(SensorKind, SimTime t) override { return t.seconds(); }
      GeoPoint Position(SimTime) override { return {43.0, -76.0, 99.0}; }
    } env;
    sensors::BluetoothLink link;
    link.Pair();
    std::vector<SimTime> schedule;
    for (int i = 1; i <= kInstants; ++i) schedule.push_back(SimTime{i * 1'000});
    for (int phone = 0; phone < 2; ++phone) {
      sensors::SensorManager sensors;
      sensors.RegisterProvider(
          sensors::MakeProvider(SensorKind::kMicrophone, env, link));
      phone::LocalPreferenceManager prefs;
      phone::TaskInstance task(TaskId{static_cast<std::uint64_t>(phone + 1)},
                               AppId{1}, "local xs = get_noise_readings(3)",
                               schedule, SimDuration{1'000}, 3);
      (void)task.RunDue(SimTime{kInstants * 1'000}, sensors, prefs);
      executions += task.stats().executions;
    }
    builds = phone::TaskInstance::host_tables_built_on_this_thread();
  });
  worker.join();
  EXPECT_EQ(executions, 2u * kInstants);
  EXPECT_LE(builds, 1u);
}

TEST(Perf, FleetJoinCompilesEachDistinctScriptOnce) {
  // Every phone that joins an app is sent the same script. Tasks built from
  // one script share its compile (parse, analysis, lowering, optimization)
  // while any of them is alive, so a 400-phone join compiles it once; a
  // compile per task was most of a join's phone-side work.
  constexpr int kFleet = 400;
  struct ConstantEnvironment final : sensors::SensorEnvironment {
    double Sample(SensorKind, SimTime t) override { return t.seconds(); }
    GeoPoint Position(SimTime) override { return {43.0, -76.0, 99.0}; }
  } env;
  SimClock clock;
  net::LoopbackNetwork net;
  net.set_clock(&clock);
  SensingServer server{ServerConfig{}, net, clock};
  ApplicationSpec spec = PerfAppSpec(/*trail=*/false);
  spec.script = "-- fleet join\nlocal xs = get_noise_readings(3)";
  Result<BarcodePayload> barcode = server.DeployApplication(spec);
  ASSERT_TRUE(barcode.ok()) << barcode.error().str();
  const BitMatrix matrix = RenderBarcodeMatrix(barcode.value());

  const std::uint64_t before = phone::TaskInstance::scripts_compiled();
  std::vector<std::unique_ptr<phone::MobileFrontend>> phones;
  for (int i = 0; i < kFleet; ++i) {
    phone::FrontendConfig cfg;
    cfg.phone_id = PhoneId{static_cast<std::uint64_t>(i + 1)};
    cfg.user_name = "fleet-" + std::to_string(i);
    cfg.token = Token{"tok-f" + std::to_string(i)};
    Result<UserId> user =
        server.users().RegisterUser(cfg.user_name, cfg.token);
    ASSERT_TRUE(user.ok());
    cfg.user_id = user.value();
    phones.push_back(
        std::make_unique<phone::MobileFrontend>(cfg, net, env, clock));
    ASSERT_TRUE(phones.back()->ScanBarcodeMatrix(matrix, 10).ok());
  }
  std::size_t tasks = 0;
  for (const auto& p : phones) tasks += p->num_tasks();
  EXPECT_EQ(tasks, static_cast<std::size_t>(kFleet));
  EXPECT_EQ(phone::TaskInstance::scripts_compiled() - before, 1u);
}

TEST(Perf, SensorBuffersStayBoundedOverAFullTrailCampaign) {
  // The §V-A trail field test at one phone per trail over its full three
  // hours (1080 ticks). Each tick that sensed trims every provider's shared
  // buffer to what a later acquisition could still reuse, so the largest
  // buffer is set by sampling windows and freshness, not by how long the
  // campaign has run: 22 readings here, against 560 when nothing trims.
  constexpr std::size_t kMaxBufferedReadings = 64;
  const world::Scenario sc = [] {
    world::Scenario s = world::MakeHikingTrailScenario();
    s.phones_per_place = 1;
    return s;
  }();
  SimClock clock;
  net::LoopbackNetwork net;
  net.set_clock(&clock);
  SensingServer server{ServerConfig{}, net, clock};
  core::FleetPlanParams params;
  params.n_instants = 1080;
  const core::FleetPlan plan = core::PlanFleet(sc, params);
  std::vector<BitMatrix> barcodes;
  for (const ApplicationSpec& spec : plan.app_specs) {
    Result<BarcodePayload> barcode = server.DeployApplication(spec);
    ASSERT_TRUE(barcode.ok()) << barcode.error().str();
    barcodes.push_back(RenderBarcodeMatrix(barcode.value()));
  }
  std::vector<std::unique_ptr<world::PhoneAgent>> agents;
  std::vector<std::unique_ptr<phone::MobileFrontend>> phones;
  for (const core::PhonePlan& ph : plan.phones) {
    Result<UserId> user = server.users().RegisterUser(ph.user_name, ph.token);
    ASSERT_TRUE(user.ok());
    world::PhoneAgentConfig agent_cfg;
    agent_cfg.id = PhoneId{ph.seq};
    agent_cfg.mobility = world::Mobility::kTrailWalk;
    agent_cfg.seed = ph.agent_seed;
    agents.push_back(std::make_unique<world::PhoneAgent>(
        sc.places[ph.place_index], agent_cfg));
    phone::FrontendConfig cfg;
    cfg.phone_id = agent_cfg.id;
    cfg.user_id = user.value();
    cfg.user_name = ph.user_name;
    cfg.token = ph.token;
    phones.push_back(std::make_unique<phone::MobileFrontend>(
        cfg, net, *agents.back(), clock));
    ASSERT_TRUE(
        phones.back()->ScanBarcodeMatrix(barcodes[ph.place_index], 40).ok());
  }

  const int ticks = static_cast<int>(
      SimTime::FromSeconds(sc.period_s).ms / SimDuration{10'000}.ms);
  ASSERT_EQ(ticks, 1080);
  std::size_t peak = 0;
  std::uint64_t acquisitions = 0;
  for (int i = 0; i < ticks; ++i) {
    clock.advance(SimDuration{10'000});
    for (auto& p : phones) {
      p->Tick();
      for (int k = 0; k < kSensorKindCount; ++k) {
        const auto* provider = static_cast<const sensors::BufferedProvider*>(
            p->sensor_manager().provider(static_cast<SensorKind>(k)));
        peak = std::max(peak, provider->buffer_size());
      }
    }
  }
  for (auto& p : phones) {
    for (int k = 0; k < kSensorKindCount; ++k)
      acquisitions += p->sensor_manager()
                          .provider(static_cast<SensorKind>(k))
                          ->stats()
                          .physical_acquisitions;
  }
  EXPECT_GT(server.stats().uploads_stored, 0u);
  EXPECT_GT(acquisitions, 10 * kMaxBufferedReadings);  // far more than kept
  EXPECT_LT(peak, kMaxBufferedReadings);
}

// --- the db equality-scan gate ----------------------------------------------

TEST(Perf, IndexedScanVisitationAtLeast5xFasterThanBaseline) {
  // BENCH_micro_db.json's indexed_scan was 1.17 ms/op when it measured the
  // materializing FindWhereEq over this exact shape (100k rows, 16-way
  // fanout). The visitation path the hot loops use must beat that baseline
  // by ≥5x. Wall-clock, but with a 1.8x+ margin on an idle host and
  // min-of-batches to shrug off scheduler noise. Sanitizers slow it past
  // any wall-clock bound, so only the default test preset runs it
  // (CMakePresets.json excludes it from asan-ubsan and tsan).
  db::Schema schema;
  schema.table_name = "bench";
  schema.columns = {{"id", db::ColumnType::kInt64},
                    {"app", db::ColumnType::kInt64},
                    {"status", db::ColumnType::kText},
                    {"value", db::ColumnType::kDouble}};
  db::Table t(schema);
  ASSERT_TRUE(t.CreateIndex("app").ok());
  constexpr std::int64_t kRows = 100'000;
  constexpr std::int64_t kFanout = 16;
  {
    std::vector<db::Row> batch;
    batch.reserve(kRows);
    for (std::int64_t i = 0; i < kRows; ++i)
      batch.push_back({db::Value(i), db::Value(i % kFanout),
                       db::Value("running"), db::Value(1.5)});
    ASSERT_TRUE(t.InsertBatch(std::move(batch)).ok());
  }

  constexpr double kBaselineNs = 1'170'000.0;  // blessed pre-change metric
  using Clock = std::chrono::steady_clock;
  double best_ns = 1e18;
  for (int batch = 0; batch < 5; ++batch) {
    constexpr int kIters = 10;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      double sum = 0.0;
      t.ForEachWhereEq("app", db::Value(std::int64_t{i} % kFanout),
                       [&](const db::Row& r) {
                         sum += r[3].as_double();
                         return true;
                       });
      ASSERT_GT(sum, 0.0);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        kIters;
    best_ns = std::min(best_ns, ns);
  }
  EXPECT_LT(best_ns, kBaselineNs / 5.0)
      << "indexed equality visitation regressed below the 5x contract";
}

TEST(Perf, IndexedScanVisitationCopiesNoRowsAndScansNoTable) {
  // The operation-count side of the 5x wall-clock gate above, which a
  // loaded host can fail: on the same shape, visitation reaches exactly
  // the matching rows through the index, copies none of them and scans no
  // table, while the materializing baseline copies every match.
  db::Schema schema;
  schema.table_name = "bench";
  schema.columns = {{"id", db::ColumnType::kInt64},
                    {"app", db::ColumnType::kInt64},
                    {"status", db::ColumnType::kText},
                    {"value", db::ColumnType::kDouble}};
  db::Table t(schema);
  ASSERT_TRUE(t.CreateIndex("app").ok());
  constexpr std::int64_t kRows = 100'000;
  constexpr std::int64_t kFanout = 16;
  {
    std::vector<db::Row> batch;
    batch.reserve(kRows);
    for (std::int64_t i = 0; i < kRows; ++i)
      batch.push_back({db::Value(i), db::Value(i % kFanout),
                       db::Value("running"), db::Value(1.5)});
    ASSERT_TRUE(t.InsertBatch(std::move(batch)).ok());
  }
  obs::MetricsRegistry registry;
  obs::Counter& full_scans = registry.counter("db.full_scans");
  obs::Counter& materialized = registry.counter("db.rows_materialized");
  t.set_full_scan_counter(&full_scans);
  t.set_rows_materialized_counter(&materialized);

  for (std::int64_t app = 0; app < kFanout; ++app) {
    std::uint64_t visited = 0;
    t.ForEachWhereEq("app", db::Value(app), [&](const db::Row&) {
      ++visited;
      return true;
    });
    EXPECT_EQ(visited, static_cast<std::uint64_t>(kRows / kFanout));
  }
  EXPECT_EQ(full_scans.value(), 0u);
  EXPECT_EQ(materialized.value(), 0u);

  EXPECT_EQ(t.FindWhereEq("app", db::Value(std::int64_t{0})).size(),
            static_cast<std::size_t>(kRows / kFanout));
  EXPECT_EQ(full_scans.value(), 0u);
  EXPECT_EQ(materialized.value(), static_cast<std::uint64_t>(kRows / kFanout));
}

TEST(Perf, LoopbackHashesEachFrameOnceEachWay) {
  // An in-process message is CRC'd once when it is encoded and once when
  // its receiver checks it, so a campaign hashes at most twice the bytes
  // of its requests and replies. Re-framing every frame through the socket
  // stream codec hashed each about four times. One thread, so every
  // encode and check is counted on this thread.
  core::FieldTestConfig config;
  config.budget_per_user = 40;
  config.sigma_s = 60.0;
  config.seed = 42;
  config.threads = 1;
  core::System system;
  const std::uint64_t before = crc32_bytes_on_this_thread();
  Result<core::FieldTestResult> run =
      system.RunFieldTest(world::MakeHikingTrailScenario(), config);
  const std::uint64_t hashed = crc32_bytes_on_this_thread() - before;
  ASSERT_TRUE(run.ok()) << run.error().str();
  const net::TransportStats& t = run.value().transport_stats;
  const std::uint64_t wire = t.bytes_sent + t.bytes_received;
  ASSERT_GT(wire, 0u);
  EXPECT_LE(hashed, 2 * wire) << "hashed " << hashed << " of " << wire;
}

}  // namespace
}  // namespace sor::server
