// Tests for the extension features layered on the paper's core: the
// sensing-energy model, online-aware rescheduling, database snapshots,
// schedule timelines, hybrid objective+subjective ranking, and
// multi-category campaigns on one System.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "db/snapshot.hpp"
#include "db/storage_faults.hpp"
#include "rank/hybrid.hpp"
#include "sched/baseline.hpp"
#include "sched/brute_force.hpp"
#include "sched/greedy.hpp"
#include "sched/timeline.hpp"
#include "sensors/energy.hpp"

namespace sor {
namespace {

// --- energy model -----------------------------------------------------------

TEST(Energy, PerKindCostsAreSane) {
  // GPS and WiFi scans dominate; ambient sensors are cheap.
  EXPECT_GT(sensors::AcquisitionEnergyMj(SensorKind::kGps),
            sensors::AcquisitionEnergyMj(SensorKind::kLight));
  EXPECT_GT(sensors::AcquisitionEnergyMj(SensorKind::kWifi),
            sensors::AcquisitionEnergyMj(SensorKind::kAccelerometer));
  for (int k = 0; k < kSensorKindCount; ++k) {
    EXPECT_GT(sensors::AcquisitionEnergyMj(static_cast<SensorKind>(k)), 0.0);
  }
}

TEST(Energy, ReportAccumulatesSpentAndSaved) {
  class Env final : public sensors::SensorEnvironment {
   public:
    double Sample(SensorKind, SimTime) override { return 1.0; }
    GeoPoint Position(SimTime) override { return {}; }
  };
  Env env;
  sensors::EmbeddedProvider p(SensorKind::kWifi, env);  // 60 mJ per sample
  ASSERT_TRUE(p.Acquire({SimTime{0}, SimDuration{0}, 2}).ok());
  // Second acquisition at the same time is served from the buffer.
  ASSERT_TRUE(p.Acquire({SimTime{500}, SimDuration{0}, 2}).ok());
  const sensors::EnergyReport report = sensors::EnergyOf(p);
  EXPECT_DOUBLE_EQ(report.spent_mj, 2 * 60.0);
  EXPECT_DOUBLE_EQ(report.saved_mj, 2 * 60.0);
}

TEST(Energy, CampaignReportsEnergy) {
  core::System system;
  world::Scenario scenario = world::MakeCoffeeShopScenario();
  scenario.phones_per_place = 2;
  core::FieldTestConfig config;
  config.budget_per_user = 8;
  config.n_instants = 120;
  config.tick = SimDuration{90'000};
  Result<core::FieldTestResult> run = system.RunFieldTest(scenario, config);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run.value().energy_spent_mj, 0.0);
}

// --- online-aware scheduling -------------------------------------------------

TEST(OnlineSched, ExistingMeasurementsSteerGreedyAway) {
  // Half the period is already densely covered; a new user's budget must
  // land almost entirely in the uncovered half.
  sched::Problem p = sched::Problem::UniformGrid(600.0, 60, 10.0);
  for (int i = 0; i < 30; i += 2) p.existing_measurements.push_back(i);
  p.users.push_back(sched::UserWindow{
      SimInterval{SimTime{0}, SimTime::FromSeconds(600)}, 10});
  Result<sched::ScheduleResult> r = sched::GreedySchedule(p);
  ASSERT_TRUE(r.ok());
  int in_uncovered_half = 0;
  for (int i : r.value().schedule.per_user[0]) {
    if (i >= 30) ++in_uncovered_half;
  }
  EXPECT_GE(in_uncovered_half, 8);
}

TEST(OnlineSched, ObjectiveIsAdditionalCoverage) {
  sched::Problem blank = sched::Problem::UniformGrid(600.0, 60, 10.0);
  blank.users.push_back(sched::UserWindow{
      SimInterval{SimTime{0}, SimTime::FromSeconds(600)}, 5});
  Result<sched::ScheduleResult> fresh = sched::GreedySchedule(blank);
  ASSERT_TRUE(fresh.ok());

  // Saturate the whole period, then reschedule: additional coverage ~ 0.
  sched::Problem saturated = blank;
  for (int i = 0; i < 60; ++i) saturated.existing_measurements.push_back(i);
  Result<sched::ScheduleResult> r = sched::GreedySchedule(saturated);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value().objective, 0.05 * fresh.value().objective);
}

TEST(OnlineSched, BaselineAndBruteForceShareObjectiveSemantics) {
  sched::Problem p = sched::Problem::UniformGrid(60.0, 6, 10.0);
  p.users.push_back(sched::UserWindow{
      SimInterval{SimTime{0}, SimTime::FromSeconds(60)}, 2});
  p.existing_measurements = {0, 1, 2, 3, 4, 5};
  Result<sched::ScheduleResult> base = sched::PeriodicBaselineSchedule(p);
  Result<sched::ScheduleResult> brute = sched::BruteForceOptimalSchedule(p);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(brute.ok());
  // Everything is already covered: additional coverage is tiny for both.
  EXPECT_LT(base.value().objective, 0.6);
  EXPECT_LT(brute.value().objective, 0.6);
  EXPECT_GE(brute.value().objective, -1e-9);
}

TEST(OnlineSched, ServerReschedulePlacesOnlyFutureInstants) {
  // Join at t=0, sense a while, then a second user joins mid-period: the
  // refreshed schedules must not contain instants in the past.
  SimClock clock;
  net::LoopbackNetwork net;
  server::SensingServer server(server::ServerConfig{}, net, clock);

  server::ApplicationSpec spec;
  spec.creator = "op";
  spec.place = PlaceId{1};
  spec.place_name = "P";
  spec.location = GeoPoint{43.0, -76.0, 0};
  spec.radius_m = 100;
  spec.script = "local x = get_noise_readings(2)";
  spec.features = server::CoffeeShopFeatures();
  spec.period = SimInterval{SimTime{0}, SimTime{600'000}};
  spec.n_instants = 60;
  spec.sigma_s = 20.0;
  Result<BarcodePayload> barcode = server.DeployApplication(spec);
  ASSERT_TRUE(barcode.ok());

  struct Recorder final : net::Endpoint {
    std::vector<ScheduleDistribution> schedules;
    Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
      Result<Message> decoded = DecodeFrame(frame);
      if (decoded.ok()) {
        if (const auto* s =
                std::get_if<ScheduleDistribution>(&decoded.value()))
          schedules.push_back(*s);
      }
      return EncodeFrame(Ack{});
    }
  };
  Recorder phone_a, phone_b;
  net.Register("phone:tok-a", &phone_a);
  net.Register("phone:tok-b", &phone_b);
  const UserId ua = server.users().RegisterUser("a", Token{"tok-a"}).value();
  const UserId ub = server.users().RegisterUser("b", Token{"tok-b"}).value();

  ParticipationRequest req;
  req.user = ua;
  req.token = Token{"tok-a"};
  req.app = barcode.value().app;
  req.location = spec.location;
  req.budget = 10;
  req.scan_time = clock.now();
  ASSERT_TRUE(net.Send("server", req).ok());

  // Mid-period join by user B.
  clock.advance_to(SimTime{300'000});
  req.user = ub;
  req.token = Token{"tok-b"};
  req.scan_time = clock.now();
  ASSERT_TRUE(net.Send("server", req).ok());

  // Plan-delta distribution: only the JOINING phone gets a schedule — A's
  // plan is append-only and is not re-sent. B's schedule, planned mid-
  // period, is future-only.
  ASSERT_EQ(phone_a.schedules.size(), 1u);
  ASSERT_GE(phone_b.schedules.size(), 1u);
  for (SimTime t : phone_b.schedules.back().instants)
    EXPECT_GE(t.ms, 300000);
  // The schedule for A (computed at t=0) was unconstrained.
  EXPECT_FALSE(phone_a.schedules.front().instants.empty());
  net.Unregister("phone:tok-a");
  net.Unregister("phone:tok-b");
}

// --- database snapshots ---------------------------------------------------------

TEST(Snapshot, RoundTripPreservesEverything) {
  db::Database original;
  db::MakeSorSchema(original);
  db::Table* users = original.table(db::tables::kUsers);
  ASSERT_TRUE(users->Insert({db::Value(1), db::Value("ann"),
                             db::Value("tok-1")})
                  .ok());
  db::Table* raw = original.table(db::tables::kRawData);
  ASSERT_TRUE(raw->Insert({db::Value(1), db::Value(2), db::Value(3),
                           db::Value(db::Blob{1, 2, 3}), db::Value(42),
                           db::Value(7)})
                  .ok());

  const Bytes snapshot = db::SnapshotDatabase(original);
  db::Database restored;
  ASSERT_TRUE(db::RestoreDatabase(snapshot, restored).ok());

  EXPECT_EQ(restored.table_names().size(), original.table_names().size());
  const auto row = restored.table(db::tables::kUsers)->FindByKey(db::Value(1));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].as_text(), "ann");
  const auto blob_row =
      restored.table(db::tables::kRawData)->FindByKey(db::Value(1));
  ASSERT_TRUE(blob_row.has_value());
  EXPECT_EQ((*blob_row)[3].as_blob(), (db::Blob{1, 2, 3}));
  // Secondary indexes survive (lookups by token work).
  EXPECT_EQ(restored.table(db::tables::kUsers)
                ->FindWhereEq("token", db::Value("tok-1"))
                .size(),
            1u);
}

TEST(Snapshot, Deterministic) {
  db::Database a;
  db::MakeSorSchema(a);
  db::Database b;
  db::MakeSorSchema(b);
  EXPECT_EQ(db::SnapshotDatabase(a), db::SnapshotDatabase(b));
}

TEST(Snapshot, CorruptionRejectedAtomically) {
  db::Database original;
  db::MakeSorSchema(original);
  Bytes snapshot = db::SnapshotDatabase(original);
  for (std::size_t i = 0; i < snapshot.size(); i += 7) {
    Bytes mutated = snapshot;
    mutated[i] ^= 0x20;
    db::Database out;
    EXPECT_FALSE(db::RestoreDatabase(mutated, out).ok()) << "byte " << i;
    EXPECT_TRUE(out.table_names().empty());  // nothing half-restored
  }
  Bytes truncated(snapshot.begin(), snapshot.begin() + 10);
  db::Database out;
  EXPECT_FALSE(db::RestoreDatabase(truncated, out).ok());
}

TEST(Snapshot, FuzzTornBytesRejectedAllOrNothing) {
  // Storage fault domain (docs/robustness.md): a torn snapshot write —
  // truncation at any length, or any flipped bit — must be rejected as a
  // clean error with NOTHING half-restored, at every sampled offset. The
  // CRC footer guarantees single-bit detection; this pins the all-or-nothing
  // property on a POPULATED database, blobs included.
  db::Database original;
  db::MakeSorSchema(original);
  ASSERT_TRUE(original.table(db::tables::kUsers)
                  ->Insert({db::Value(1), db::Value("ann"), db::Value("tok-1")})
                  .ok());
  ASSERT_TRUE(original.table(db::tables::kRawData)
                  ->Insert({db::Value(1), db::Value(2), db::Value(3),
                            db::Value(db::Blob{0xDE, 0xAD, 0xBE, 0xEF}),
                            db::Value(42), db::Value(7)})
                  .ok());
  ASSERT_TRUE(original.table(db::tables::kParticipations)
                  ->Insert({db::Value(9), db::Value(1), db::Value(3),
                            db::Value("tok-1"), db::Value(10), db::Value(10),
                            db::Value("running"), db::Value(0),
                            db::Value(db::Null{}), db::Value(1)})
                  .ok());
  const Bytes snapshot = db::SnapshotDatabase(original);
  ASSERT_GT(snapshot.size(), 64u);

  // Truncations at ~100 sampled lengths, including the header and footer.
  const std::size_t stride = snapshot.size() / 97 + 1;
  for (std::size_t len = 0; len < snapshot.size(); len += stride) {
    Bytes torn = snapshot;
    db::TearSnapshotBytes(torn, {.truncate_to = len});
    ASSERT_EQ(torn.size(), len);
    db::Database out;
    EXPECT_FALSE(db::RestoreDatabase(torn, out).ok()) << "truncate " << len;
    EXPECT_TRUE(out.table_names().empty()) << "truncate " << len;
  }

  // Every bit position at sampled byte offsets.
  for (std::size_t at = 0; at < snapshot.size(); at += stride) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes torn = snapshot;
      db::TearSnapshotBytes(
          torn, {.flip_at = at,
                 .xor_mask = static_cast<std::uint8_t>(1u << bit)});
      db::Database out;
      EXPECT_FALSE(db::RestoreDatabase(torn, out).ok())
          << "flip byte " << at << " bit " << bit;
      EXPECT_TRUE(out.table_names().empty())
          << "flip byte " << at << " bit " << bit;
    }
  }

  // The pristine bytes still restore — the fuzz loop never mutated them.
  db::Database out;
  ASSERT_TRUE(db::RestoreDatabase(snapshot, out).ok());
  EXPECT_EQ(out.table_names().size(), original.table_names().size());
}

TEST(Snapshot, ServerDatabaseSurvivesRestart) {
  // End-to-end durability: snapshot a live server's database after a
  // campaign, restore it, and read the same feature values back.
  core::System system;
  world::Scenario scenario = world::MakeCoffeeShopScenario();
  scenario.phones_per_place = 2;
  core::FieldTestConfig config;
  config.budget_per_user = 6;
  config.n_instants = 60;
  config.tick = SimDuration{120'000};
  Result<core::FieldTestResult> run = system.RunFieldTest(scenario, config);
  ASSERT_TRUE(run.ok());

  const Bytes snapshot = db::SnapshotDatabase(system.server().database());
  db::Database restored;
  ASSERT_TRUE(db::RestoreDatabase(snapshot, restored).ok());
  EXPECT_EQ(restored.table(db::tables::kFeatureData)->size(),
            system.server().database().table(db::tables::kFeatureData)->size());
  EXPECT_EQ(restored.table(db::tables::kParticipations)->size(), 6u);
}

// --- schedule timeline ------------------------------------------------------------

TEST(Timeline, RendersUsersAndCoverage) {
  sched::Problem p = sched::Problem::UniformGrid(600.0, 60, 20.0);
  p.users.push_back(sched::UserWindow{
      SimInterval{SimTime{0}, SimTime::FromSeconds(300)}, 5});
  p.users.push_back(sched::UserWindow{
      SimInterval{SimTime::FromSeconds(200), SimTime::FromSeconds(600)}, 5});
  Result<sched::ScheduleResult> r = sched::GreedySchedule(p);
  ASSERT_TRUE(r.ok());
  const std::string timeline =
      sched::RenderScheduleTimeline(p, r.value().schedule);
  EXPECT_NE(timeline.find("user 0"), std::string::npos);
  EXPECT_NE(timeline.find("user 1"), std::string::npos);
  EXPECT_NE(timeline.find("coverage"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);  // scheduled sensing
  EXPECT_NE(timeline.find('-'), std::string::npos);  // absent periods
  // 3 rows (2 users + coverage), each ending with "|\n".
  EXPECT_EQ(std::count(timeline.begin(), timeline.end(), '\n'), 3);
}

TEST(Timeline, EmptyGridHandled) {
  sched::Problem p;
  EXPECT_EQ(sched::RenderScheduleTimeline(p, sched::Schedule::Empty(0)),
            "(empty grid)\n");
}

// --- hybrid ranking -----------------------------------------------------------

rank::FeatureMatrix TinyMatrix() {
  rank::FeatureMatrix m({"A", "B", "C"},
                        {{"noise", rank::PrefDirection::kMinimize, 0}});
  m.set(0, 0, 0.1);
  m.set(1, 0, 0.2);
  m.set(2, 0, 0.3);
  return m;
}

TEST(Hybrid, SubjectiveRatingsToRanking) {
  rank::SubjectiveRatings ratings;
  ratings.stars = {3.0, 4.5, 4.5};
  ratings.review_counts = {10, 5, 500};
  Result<rank::Ranking> r = ratings.ToRanking();
  ASSERT_TRUE(r.ok());
  // C wins the 4.5 tie on review count; A is last.
  EXPECT_EQ(r.value().order(), (std::vector<int>{2, 1, 0}));
  ratings.stars = {6.0, 1.0, 1.0};
  EXPECT_FALSE(ratings.ToRanking().ok());  // out of range
}

TEST(Hybrid, ZeroWeightEqualsObjectiveRanking) {
  const rank::PersonalizableRanker ranker(TinyMatrix());
  rank::UserProfile quiet;
  quiet.name = "q";
  quiet.prefs = {rank::FeaturePreference::PreferMin(5)};
  rank::SubjectiveRatings ratings;
  ratings.stars = {1.0, 3.0, 5.0};  // subjective says C best

  Result<rank::RankingOutcome> objective = ranker.Rank(quiet);
  Result<rank::RankingOutcome> hybrid0 =
      rank::HybridRank(ranker, quiet, ratings, 0.0);
  ASSERT_TRUE(objective.ok());
  ASSERT_TRUE(hybrid0.ok());
  EXPECT_EQ(hybrid0.value().final_ranking, objective.value().final_ranking);
}

TEST(Hybrid, HeavySubjectiveWeightFlipsRanking) {
  const rank::PersonalizableRanker ranker(TinyMatrix());
  rank::UserProfile quiet;
  quiet.name = "q";
  quiet.prefs = {rank::FeaturePreference::PreferMin(1)};
  rank::SubjectiveRatings ratings;
  ratings.stars = {1.0, 3.0, 5.0};
  Result<rank::RankingOutcome> hybrid =
      rank::HybridRank(ranker, quiet, ratings, 10.0);
  ASSERT_TRUE(hybrid.ok());
  // Subjective order C,B,A dominates the weak objective A,B,C preference.
  EXPECT_EQ(hybrid.value().final_ranking.order(),
            (std::vector<int>{2, 1, 0}));
}

TEST(Hybrid, InputValidation) {
  const rank::PersonalizableRanker ranker(TinyMatrix());
  rank::UserProfile p;
  p.name = "q";
  p.prefs = {rank::FeaturePreference::PreferMin(5)};
  rank::SubjectiveRatings wrong_size;
  wrong_size.stars = {1.0};
  EXPECT_FALSE(rank::HybridRank(ranker, p, wrong_size, 1.0).ok());
  rank::SubjectiveRatings ok;
  ok.stars = {1, 2, 3};
  EXPECT_FALSE(rank::HybridRank(ranker, p, ok, -1.0).ok());
}

// --- multi-category campaigns ---------------------------------------------------

TEST(MultiCategory, TwoScenariosOnOneSystem) {
  core::System system;
  core::FieldTestConfig config;
  config.budget_per_user = 8;
  config.n_instants = 90;
  config.tick = SimDuration{120'000};

  world::Scenario shops = world::MakeCoffeeShopScenario();
  shops.phones_per_place = 2;
  world::Scenario trails = world::MakeHikingTrailScenario();
  trails.phones_per_place = 2;

  Result<core::FieldTestResult> coffee = system.RunFieldTest(shops, config);
  ASSERT_TRUE(coffee.ok()) << coffee.error().str();
  Result<core::FieldTestResult> hiking = system.RunFieldTest(trails, config);
  ASSERT_TRUE(hiking.ok()) << hiking.error().str();

  // One server now hosts both categories — "multiple such matrices".
  EXPECT_EQ(system.server().applications().All().size(), 6u);
  EXPECT_EQ(coffee.value().matrix.num_features(), 4);
  EXPECT_EQ(hiking.value().matrix.num_features(), 5);
  EXPECT_EQ(coffee.value().rankings.size(), 2u);
  EXPECT_EQ(hiking.value().rankings.size(), 3u);
}

}  // namespace
}  // namespace sor
