// Chaos-grade end-to-end tests: the full coffee-shop pipeline replayed
// under seeded fault injection (drops, corruption, duplication, partition
// windows on both legs of every round trip), plus a server kill/restart
// mid-campaign. The invariants:
//   * no duplicate raw rows — every stored (task, seq) pair is unique;
//   * budget is never over-consumed — what each task was billed equals the
//     distinct instants actually stored for it (capped by the budget);
//   * store-and-forward queues stay bounded and drain to empty;
//   * the final rankings are identical to a fault-free run — chaos may
//     delay the data, it must not change the answer.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/system.hpp"
#include "db/snapshot.hpp"
#include "processor_oracle.hpp"
#include "server/feature_def.hpp"
#include "world/phone_agent.hpp"

namespace sor::core {
namespace {

// Shrunk coffee-shop campaign: same three places, fewer phones and a
// 30-minute period, so ten chaos replays stay fast.
world::Scenario SmallCoffeeScenario() {
  world::Scenario s = world::MakeCoffeeShopScenario();
  s.phones_per_place = 4;
  s.period_s = 1'800.0;
  return s;
}

FieldTestConfig BaseConfig() {
  FieldTestConfig c;
  c.budget_per_user = 20;
  c.n_instants = 120;
  c.sigma_s = 60.0;
  return c;
}

// Aggressive-but-recoverable wire: probabilities at the acceptance ceiling
// (0.3), applied to request AND response legs, plus a one-minute hard
// partition in the middle of the period.
std::vector<net::FaultRule> ChaosRules() {
  net::FaultRule lossy;
  lossy.drop = 0.3;
  lossy.corrupt = 0.2;
  lossy.duplicate = 0.2;
  net::FaultRule partition;
  partition.partition = SimInterval{SimTime{600'000}, SimTime{660'000}};
  return {lossy, partition};
}

// Decode every stored raw row and check the dedup + budget invariants.
void CheckStorageInvariants(server::SensingServer& srv) {
  const db::Table* raw = srv.database().table(db::tables::kRawData);
  std::set<std::pair<std::int64_t, std::int64_t>> keys;
  std::map<std::int64_t, std::set<std::int64_t>> instants_per_task;
  const auto seq_col = static_cast<std::size_t>(raw->col("seq"));
  for (const db::Row& r : raw->Scan()) {
    const std::int64_t task = r[1].as_int();
    const std::int64_t seq = r[seq_col].as_int();
    if (seq != 0) {
      EXPECT_TRUE(keys.insert({task, seq}).second)
          << "duplicate raw row for task " << task << " seq " << seq;
    }
    Result<Message> body =
        DecodeBody(MessageType::kSensedDataUpload, r[3].as_blob());
    ASSERT_TRUE(body.ok()) << body.error().str();
    for (const ReadingTuple& t :
         std::get<SensedDataUpload>(body.value()).batches) {
      instants_per_task[task].insert(t.t.ms);
    }
  }
  // Billing matches storage exactly: each task paid one acquisition per
  // distinct stored instant — never more (no double-billing on retries).
  const db::Table* parts =
      srv.database().table(db::tables::kParticipations);
  for (const db::Row& r : parts->Scan()) {
    const std::int64_t task = r[0].as_int();
    const std::int64_t budget = r[4].as_int();
    const std::int64_t left = r[5].as_int();
    const auto stored =
        static_cast<std::int64_t>(instants_per_task[task].size());
    EXPECT_GE(left, 0) << "task " << task;
    EXPECT_EQ(budget - left, std::min(budget, stored)) << "task " << task;
  }
}

TEST(Chaos, TenSeedsConvergeToTheFaultFreeRankings) {
  const world::Scenario scenario = SmallCoffeeScenario();

  System baseline_system;
  Result<FieldTestResult> baseline =
      baseline_system.RunFieldTest(scenario, BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.error().str();

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    FieldTestConfig config = BaseConfig();
    config.chaos_rules = ChaosRules();
    config.chaos_seed = seed;

    System system;
    Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
    ASSERT_TRUE(run.ok()) << run.error().str();

    // The chaos actually happened (this is not a vacuous pass)...
    const net::TransportStats& t = run.value().transport_stats;
    EXPECT_GT(t.dropped + t.responses_dropped, 0u);
    EXPECT_GT(t.partitioned, 0u);
    EXPECT_GT(run.value().total_uploads_retried, 0u);
    EXPECT_GT(run.value().server_stats.duplicate_uploads_ignored, 0u);

    // ...queues drained within the drain window, nothing was evicted...
    EXPECT_EQ(run.value().total_uploads_dropped, 0u);
    for (const auto& frontend : system.frontends()) {
      EXPECT_EQ(frontend->pending_uploads(), 0u);
      EXPECT_EQ(frontend->pending_leaves(), 0u);
    }

    // ...storage and billing invariants hold...
    CheckStorageInvariants(system.server());

    // ...and the answer is byte-for-byte the fault-free answer.
    ASSERT_EQ(run.value().rankings.size(), baseline.value().rankings.size());
    for (std::size_t p = 0; p < baseline.value().rankings.size(); ++p) {
      EXPECT_EQ(run.value().RankedNames(p), baseline.value().RankedNames(p))
          << "profile " << baseline.value().rankings[p].first;
    }
    const rank::FeatureMatrix& want = baseline.value().matrix;
    const rank::FeatureMatrix& got = run.value().matrix;
    ASSERT_EQ(got.num_places(), want.num_places());
    ASSERT_EQ(got.num_features(), want.num_features());
    for (int i = 0; i < want.num_places(); ++i) {
      for (int j = 0; j < want.num_features(); ++j) {
        EXPECT_NEAR(got.at(i, j), want.at(i, j), 1e-6)
            << "place " << i << " feature " << j;
      }
    }
  }
}

TEST(Chaos, SameSeedSameOutcome) {
  // The whole chaos run — not just the fault schedule — is replayable.
  const world::Scenario scenario = SmallCoffeeScenario();
  FieldTestConfig config = BaseConfig();
  config.chaos_rules = ChaosRules();
  config.chaos_seed = 99;

  System a;
  Result<FieldTestResult> ra = a.RunFieldTest(scenario, config);
  System b;
  Result<FieldTestResult> rb = b.RunFieldTest(scenario, config);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().transport_stats, rb.value().transport_stats);
  EXPECT_EQ(ra.value().total_uploads_retried,
            rb.value().total_uploads_retried);
  EXPECT_EQ(ra.value().server_stats.duplicate_uploads_ignored,
            rb.value().server_stats.duplicate_uploads_ignored);
}

TEST(Chaos, ParallelRuntimeSurvivesEveryFaultSchedule) {
  // The sharded runtime under the same chaos battery: every fault schedule
  // must produce the exact serial outcome (transport counters included —
  // the fault-decision stream itself is replayed), and the storage/billing
  // invariants must hold with phones ticking on 4 threads.
  const world::Scenario scenario = SmallCoffeeScenario();
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    FieldTestConfig config = BaseConfig();
    config.chaos_rules = ChaosRules();
    config.chaos_seed = seed;

    System serial_system;
    Result<FieldTestResult> serial =
        serial_system.RunFieldTest(scenario, config);
    ASSERT_TRUE(serial.ok()) << serial.error().str();

    config.threads = 4;
    System parallel_system;
    Result<FieldTestResult> parallel =
        parallel_system.RunFieldTest(scenario, config);
    ASSERT_TRUE(parallel.ok()) << parallel.error().str();

    EXPECT_EQ(parallel.value().transport_stats,
              serial.value().transport_stats);
    EXPECT_EQ(parallel.value().total_uploads, serial.value().total_uploads);
    EXPECT_EQ(parallel.value().total_uploads_retried,
              serial.value().total_uploads_retried);
    EXPECT_EQ(parallel.value().server_stats.duplicate_uploads_ignored,
              serial.value().server_stats.duplicate_uploads_ignored);
    ASSERT_EQ(parallel.value().rankings.size(),
              serial.value().rankings.size());
    for (std::size_t p = 0; p < serial.value().rankings.size(); ++p) {
      EXPECT_EQ(parallel.value().rankings[p].second.final_ranking,
                serial.value().rankings[p].second.final_ranking)
          << "profile " << serial.value().rankings[p].first;
    }
    for (const auto& frontend : parallel_system.frontends()) {
      EXPECT_EQ(frontend->pending_uploads(), 0u);
      EXPECT_EQ(frontend->pending_leaves(), 0u);
    }
    CheckStorageInvariants(parallel_system.server());
  }
}

// Compare every matrix cell of a chaos run against the fault-free run.
void ExpectSameMatrix(const FieldTestResult& got_r,
                      const FieldTestResult& want_r) {
  const rank::FeatureMatrix& want = want_r.matrix;
  const rank::FeatureMatrix& got = got_r.matrix;
  ASSERT_EQ(got.num_places(), want.num_places());
  ASSERT_EQ(got.num_features(), want.num_features());
  for (int i = 0; i < want.num_places(); ++i) {
    for (int j = 0; j < want.num_features(); ++j) {
      EXPECT_NEAR(got.at(i, j), want.at(i, j), 1e-6)
          << "place " << i << " feature " << j;
    }
  }
}

TEST(Chaos, ChurnTenSeedsRankingsMatchTheFaultFreeBaseline) {
  // Node churn genuinely loses data: a crashed phone drops its queued and
  // collected-but-unsent batches, an uninstalled one loses everything and
  // rejoins as a new task. Features therefore need not equal the baseline
  // — but the RANKINGS over what was acknowledged must: losing a slice of
  // samples from every place must not reorder the places.
  const world::Scenario scenario = SmallCoffeeScenario();
  System baseline_system;
  Result<FieldTestResult> baseline =
      baseline_system.RunFieldTest(scenario, BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.error().str();

  std::uint64_t crashes = 0, restarts = 0, reinstalls = 0, stalls = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("node seed " + std::to_string(seed));
    FieldTestConfig config = BaseConfig();
    net::NodeFaultRule phones;
    phones.endpoint = "phone:*";
    phones.crash = 0.01;
    phones.restart_after = SimDuration{30'000};
    phones.uninstall = 0.003;
    phones.reinstall_after = SimDuration{40'000};
    net::NodeFaultRule server;
    server.endpoint = "server";
    server.stall = 0.02;
    server.stall_for = SimDuration{20'000};
    config.node_rules = {phones, server};
    config.node_seed = seed;
    config.drain_ticks = 12;

    System system;
    Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
    ASSERT_TRUE(run.ok()) << run.error().str();

    crashes += run.value().total_crashes;
    restarts += run.value().total_restarts;
    reinstalls += run.value().total_reinstalls;
    stalls += run.value().server_stall_ticks;
    // Every phone that went down inside the period made it back (downtimes
    // fit inside the drain window).
    EXPECT_EQ(run.value().total_crashes + run.value().total_reinstalls,
              run.value().total_restarts + run.value().total_reinstalls)
        << "some phone never rejoined";

    // Storage stayed sound through every crash/rejoin cycle: no duplicate
    // (task, seq) rows, billing matches storage.
    CheckStorageInvariants(system.server());

    // The answer over acknowledged data is the fault-free answer.
    ASSERT_EQ(run.value().rankings.size(), baseline.value().rankings.size());
    for (std::size_t p = 0; p < baseline.value().rankings.size(); ++p) {
      EXPECT_EQ(run.value().RankedNames(p), baseline.value().RankedNames(p))
          << "profile " << baseline.value().rankings[p].first;
    }
  }
  // The battery was not vacuous: every churn kind fired somewhere.
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(reinstalls, 0u);
  EXPECT_GT(stalls, 0u);
}

TEST(Chaos, OverloadShedsStaleBeforeFreshAndRecovers) {
  // Sustained ~2.4x overload: 12 phones want ~12 admissions per tick, the
  // budget is 5. The server must shed stale before fresh, keep every queue
  // bounded, and — because a throttle only delays data that stays queued
  // on the phone — converge to the exact fault-free features once the
  // load drops.
  const world::Scenario scenario = SmallCoffeeScenario();
  System baseline_system;
  Result<FieldTestResult> baseline =
      baseline_system.RunFieldTest(scenario, BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.error().str();

  FieldTestConfig config = BaseConfig();
  config.overload.ingest_budget = 5;
  config.overload.throttle_at = 0.6;
  config.overload.stale_after = SimDuration{15'000};
  config.overload.retry_after = SimDuration{12'000};
  config.drain_ticks = 60;  // the "load drops" phase: queues flush at 5/tick

  System system;
  Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
  ASSERT_TRUE(run.ok()) << run.error().str();

  // Overload actually happened, and the priority ladder was exercised:
  // both plain throttles (budget spent) and stale sheds occurred.
  EXPECT_GT(run.value().server_stats.uploads_throttled, 0u);
  EXPECT_GT(run.value().server_stats.uploads_shed_stale, 0u);
  EXPECT_GT(run.value().total_uploads_throttled, 0u);
  EXPECT_GT(run.value().peak_pending_uploads, 0u);

  // Bounded queues: the fleet's backlog peak stayed under the hard cap
  // (eviction never fired — nothing was lost, only delayed).
  EXPECT_EQ(run.value().total_uploads_dropped, 0u);
  EXPECT_EQ(run.value().total_uploads_abandoned, 0u);

  // Recovery: once the load dropped, everything drained and the server
  // walked back down the ladder to normal.
  for (const auto& frontend : system.frontends()) {
    EXPECT_EQ(frontend->pending_uploads(), 0u);
    EXPECT_EQ(frontend->pending_leaves(), 0u);
  }
  EXPECT_EQ(system.server().health().mode(), server::ServerMode::kNormal);

  // Convergence: delayed, never changed.
  CheckStorageInvariants(system.server());
  ExpectSameMatrix(run.value(), baseline.value());
  for (std::size_t p = 0; p < baseline.value().rankings.size(); ++p) {
    EXPECT_EQ(run.value().RankedNames(p), baseline.value().RankedNames(p));
  }
}

TEST(Chaos, StorageWriteFaultsReprimeAndConverge) {
  // Seeded raw_data write failures: each failed insert answers with a
  // throttle (the phone keeps the data), and enough failures trigger
  // quarantine-and-reprime — the derived process state is rebuilt from the
  // intact tables. Delayed, never lost: features equal the baseline.
  const world::Scenario scenario = SmallCoffeeScenario();
  System baseline_system;
  Result<FieldTestResult> baseline =
      baseline_system.RunFieldTest(scenario, BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.error().str();

  FieldTestConfig config = BaseConfig();
  db::StorageFaultRule flaky;
  flaky.table = db::tables::kRawData;  // gate-serialized writes only
  flaky.write_fail = 0.15;
  config.storage_rules = {flaky};
  config.storage_seed = 23;
  config.overload.reprime_after_failures = 3;
  config.drain_ticks = 20;

  System system;
  Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
  ASSERT_TRUE(run.ok()) << run.error().str();

  EXPECT_GT(run.value().server_stats.storage_write_failures, 0u);
  EXPECT_GE(run.value().server_stats.reprimes, 1u);
  EXPECT_GT(run.value().total_uploads_throttled, 0u);
  EXPECT_EQ(run.value().total_uploads_dropped, 0u);

  for (const auto& frontend : system.frontends()) {
    EXPECT_EQ(frontend->pending_uploads(), 0u);
    EXPECT_EQ(frontend->pending_leaves(), 0u);
  }
  CheckStorageInvariants(system.server());
  ExpectSameMatrix(run.value(), baseline.value());
  for (std::size_t p = 0; p < baseline.value().rankings.size(); ++p) {
    EXPECT_EQ(run.value().RankedNames(p), baseline.value().RankedNames(p));
  }
}

TEST(Chaos, ServerCrashMidCampaignRecoversFromSnapshot) {
  // One place, three phones, driven by hand so the server can be killed
  // and restarted halfway through the period.
  const world::Scenario scenario = SmallCoffeeScenario();
  const world::PlaceModel& place = scenario.places[0];
  const SimInterval period{SimTime{0}, SimTime::FromSeconds(600.0)};
  const SimDuration tick{10'000};

  SimClock clock;
  net::LoopbackNetwork net;
  net.set_clock(&clock);
  auto server = std::make_unique<server::SensingServer>(
      server::ServerConfig{}, net, clock);

  server::ApplicationSpec spec;
  spec.creator = "operator";
  spec.place = place.id;
  spec.place_name = place.name;
  spec.location = place.center;
  spec.radius_m = place.radius_m;
  spec.script = DefaultScript(scenario.category);
  spec.features = server::CoffeeShopFeatures();
  spec.period = period;
  spec.n_instants = 60;
  spec.sigma_s = 60.0;
  Result<BarcodePayload> barcode = server->DeployApplication(spec);
  ASSERT_TRUE(barcode.ok()) << barcode.error().str();

  std::vector<std::unique_ptr<world::PhoneAgent>> agents;
  std::vector<std::unique_ptr<phone::MobileFrontend>> phones;
  std::vector<TaskId> tasks;
  Rng rng(7);
  for (int i = 0; i < 3; ++i) {
    const Token token{"tok-" + std::to_string(i)};
    Result<UserId> user =
        server->users().RegisterUser("user_" + std::to_string(i), token);
    ASSERT_TRUE(user.ok());
    world::PhoneAgentConfig agent_cfg;
    agent_cfg.id = PhoneId{static_cast<std::uint64_t>(i + 1)};
    agent_cfg.mobility = world::Mobility::kStatic;
    agent_cfg.enter_time = SimTime{0};
    agent_cfg.seed = rng.fork().engine()();
    agents.push_back(std::make_unique<world::PhoneAgent>(place, agent_cfg));
    phone::FrontendConfig cfg;
    cfg.phone_id = agent_cfg.id;
    cfg.user_id = user.value();
    cfg.user_name = "user_" + std::to_string(i);
    cfg.token = token;
    phones.push_back(std::make_unique<phone::MobileFrontend>(
        cfg, net, *agents.back(), clock));
    Result<TaskId> task = phones.back()->ScanBarcode(barcode.value(), 10);
    ASSERT_TRUE(task.ok()) << task.error().str();
    tasks.push_back(task.value());
  }

  // First half: lossy but alive.
  net.faults().set_seed(13);
  net::FaultRule lossy;
  lossy.drop = 0.2;
  net.faults().AddRule(lossy);
  while (clock.now() < SimTime{300'000}) {
    clock.advance(tick);
    for (auto& p : phones) p->Tick();
  }

  // Crash: snapshot the durable state, then the process dies.
  const Bytes snapshot = server->SnapshotState();
  server.reset();

  // Phones keep ticking against a dead server; everything queues.
  for (int i = 0; i < 6; ++i) {
    clock.advance(tick);
    for (auto& p : phones) p->Tick();
  }

  // Restart from the snapshot.
  server = std::make_unique<server::SensingServer>(server::ServerConfig{},
                                                   net, clock);
  ASSERT_TRUE(server->RestoreFromSnapshot(snapshot).ok());
  EXPECT_EQ(server->stats().recoveries, 1u);
  net.faults().Clear();

  // Second half plus drain: queues flush, schedules re-sync on contact.
  while (clock.now() < period.end + tick * 8) {
    clock.advance(tick);
    for (auto& p : phones) p->Tick();
  }
  EXPECT_GE(server->stats().resyncs_triggered, 1u);
  for (auto& p : phones) {
    EXPECT_EQ(p->pending_uploads(), 0u);
    EXPECT_TRUE(p->LeavePlace().ok());
  }

  // No permanently lost tasks: every participation survived the crash and
  // reached "finished"; storage and billing stayed consistent throughout.
  for (TaskId task : tasks) {
    Result<server::ParticipationRecord> rec =
        server->participations().Get(task);
    ASSERT_TRUE(rec.ok()) << "task " << task.str() << " lost in crash";
    EXPECT_EQ(rec.value().status, "finished");
  }
  CheckStorageInvariants(*server);
  EXPECT_GT(server->database().table(db::tables::kRawData)->size(), 0u);

  // The recovered pipeline still produces features end to end.
  EXPECT_TRUE(server->ProcessAllData().ok());
}

TEST(Chaos, IncrementalMatchesFullUnderChaos) {
  // The streaming-accumulator path against its oracle, under the full fault
  // battery (duplicated, dropped-and-retried, corrupt-rejected uploads):
  // feature rows bit-for-bit equal to the test-side full recompute over the
  // stored campaign, and trace fingerprints equal to a run whose passes
  // start every accumulator from cursor 0 (incremental_processing =
  // false), with the incremental path run at 1, 2 and 8 threads.
  const world::Scenario scenario = SmallCoffeeScenario();
  for (std::uint64_t seed : {3ULL, 11ULL}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    FieldTestConfig config = BaseConfig();
    config.chaos_rules = ChaosRules();
    config.chaos_seed = seed;
    config.trace = true;

    FieldTestConfig full_config = config;
    full_config.incremental_processing = false;
    System full_system;
    Result<FieldTestResult> full =
        full_system.RunFieldTest(scenario, full_config);
    ASSERT_TRUE(full.ok()) << full.error().str();

    // The oracle's feature rows, recomputed from everything the campaign
    // stored (pk-ordered, so comparable by index).
    const std::vector<db::Row> want_rows =
        server::oracle::RecomputeFeatures(full_system.server(),
                                          full_system.clock().now())
            .rows;
    ASSERT_FALSE(want_rows.empty());
    // The chaos actually happened (not a vacuous pass): duplicates were
    // deduped and corrupted frames were rejected before storage.
    EXPECT_GT(full.value().server_stats.duplicate_uploads_ignored, 0u);
    EXPECT_GT(full.value().server_stats.decode_failures, 0u);

    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      FieldTestConfig inc_config = config;
      inc_config.incremental_processing = true;
      inc_config.threads = threads;
      System inc_system;
      Result<FieldTestResult> inc =
          inc_system.RunFieldTest(scenario, inc_config);
      ASSERT_TRUE(inc.ok()) << inc.error().str();

      // Byte-identical event stream: same blobs decoded in the same order,
      // same features written, regardless of path or thread count.
      EXPECT_EQ(inc.value().trace_fingerprint, full.value().trace_fingerprint);

      // Feature rows bit-for-bit: value, n_samples, everything.
      const std::vector<db::Row> got_rows =
          inc_system.server()
              .database()
              .table(db::tables::kFeatureData)
              ->ScanOrderedBy("feature_id");
      ASSERT_EQ(got_rows.size(), want_rows.size());
      for (std::size_t i = 0; i < want_rows.size(); ++i) {
        EXPECT_EQ(got_rows[i], want_rows[i]) << "feature row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sor::core
