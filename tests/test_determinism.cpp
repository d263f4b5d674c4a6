// Determinism contract of the sharded runtime (docs/runtime.md): for any
// thread count, a field test is BYTE-IDENTICAL to the serial (threads=1)
// run — same feature matrix, same rankings (final, individual, gamma,
// weights), same server/processor/transport counters, same energy totals.
// Parallelism may only change wall-clock time, never a single observable
// bit. Checked over two scenario shapes, five seeds, a chaos fault
// schedule, and the deferred-reschedule setup mode.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/fleet.hpp"
#include "core/system.hpp"
#include "planner_oracle.hpp"

namespace sor::core {
namespace {

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Append(std::ostringstream& os, const rank::Ranking& r) {
  for (int item : r.order()) os << item << ',';
  os << ';';
}

// Serialize every observable field of a FieldTestResult. Two runs are
// "the same" iff their fingerprints are equal strings.
std::string Fingerprint(const FieldTestResult& r) {
  std::ostringstream os;
  os << "matrix:";
  for (const std::string& name : r.matrix.place_names()) os << name << ',';
  for (int i = 0; i < r.matrix.num_places(); ++i)
    for (int j = 0; j < r.matrix.num_features(); ++j)
      os << Num(r.matrix.at(i, j)) << ',';
  os << "\nrankings:";
  for (const auto& [profile, outcome] : r.rankings) {
    os << profile << ':';
    Append(os, outcome.final_ranking);
    for (const rank::Ranking& ind : outcome.individual) Append(os, ind);
    for (double g : outcome.gamma) os << Num(g) << ',';
    for (double w : outcome.weights) os << Num(w) << ',';
  }
  const server::ServerStats& s = r.server_stats;
  os << "\nserver:" << s.requests_handled << ',' << s.decode_failures << ','
     << s.uploads_stored << ',' << s.participations_accepted << ','
     << s.participations_rejected << ',' << s.duplicate_uploads_ignored << ','
     << s.recoveries << ',' << s.resyncs_triggered << ','
     << s.uploads_throttled << ',' << s.uploads_shed_stale << ','
     << s.storage_write_failures << ',' << s.reprimes;
  const server::DataProcessorStats& p = r.processor_stats;
  os << "\nprocessor:" << p.blobs_decoded << ',' << p.blobs_rejected << ','
     << p.tuples_processed << ',' << p.features_written << ','
     << p.apps_skipped;
  const net::TransportStats& t = r.transport_stats;
  os << "\ntransport:" << t.delivered << ',' << t.dropped << ','
     << t.corrupted << ',' << t.duplicated << ',' << t.partitioned << ','
     << t.responses_dropped << ',' << t.responses_corrupted << ','
     << t.node_unreachable << ',' << t.bytes_sent << ','
     << t.bytes_received << ',' << t.latency_injected_ms;
  os << "\ntotals:" << r.total_uploads << ',' << r.total_upload_failures
     << ',' << r.total_uploads_retried << ',' << r.total_uploads_dropped
     << ',' << r.total_leaves_retried << ',' << Num(r.energy_spent_mj) << ','
     << Num(r.energy_saved_mj);
  os << "\nrobustness:" << r.total_uploads_throttled << ','
     << r.total_uploads_abandoned << ',' << r.total_crashes << ','
     << r.total_restarts << ',' << r.total_reinstalls << ','
     << r.server_stall_ticks << ',' << r.peak_pending_uploads;
  return os.str();
}

world::Scenario SmallCoffee() {
  world::Scenario s = world::MakeCoffeeShopScenario();
  s.phones_per_place = 4;
  s.period_s = 1'800.0;
  return s;
}

world::Scenario SmallTrail() {
  world::Scenario s = world::MakeHikingTrailScenario();
  s.phones_per_place = 3;
  s.period_s = 1'800.0;
  return s;
}

FieldTestConfig SmallConfig(std::uint64_t seed) {
  FieldTestConfig c;
  c.budget_per_user = 20;
  c.n_instants = 120;
  c.sigma_s = 60.0;
  c.seed = seed;
  return c;
}

std::string RunFingerprint(const world::Scenario& scenario,
                           FieldTestConfig config, int threads) {
  config.threads = threads;
  System system;
  Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
  EXPECT_TRUE(run.ok()) << run.error().str();
  if (!run.ok()) return "<error>";
  return Fingerprint(run.value());
}

TEST(Determinism, CoffeeShopIdenticalAcrossThreadCounts) {
  const world::Scenario scenario = SmallCoffee();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string serial =
        RunFingerprint(scenario, SmallConfig(seed), 1);
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EXPECT_EQ(RunFingerprint(scenario, SmallConfig(seed), threads), serial);
    }
  }
}

TEST(Determinism, HikingTrailIdenticalAcrossThreadCounts) {
  const world::Scenario scenario = SmallTrail();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string serial =
        RunFingerprint(scenario, SmallConfig(seed), 1);
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EXPECT_EQ(RunFingerprint(scenario, SmallConfig(seed), threads), serial);
    }
  }
}

TEST(Determinism, ChaosScheduleIdenticalAcrossThreadCounts) {
  // Fault decisions are consumed in Send() order, so the injected fault
  // schedule itself is part of the contract: a dropped frame must be THE
  // SAME dropped frame at every thread count.
  const world::Scenario scenario = SmallCoffee();
  FieldTestConfig config = SmallConfig(3);
  net::FaultRule lossy;
  lossy.drop = 0.3;
  lossy.corrupt = 0.2;
  lossy.duplicate = 0.2;
  net::FaultRule partition;
  partition.partition = SimInterval{SimTime{600'000}, SimTime{660'000}};
  config.chaos_rules = {lossy, partition};
  config.chaos_seed = 17;

  const std::string serial = RunFingerprint(scenario, config, 1);
  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(RunFingerprint(scenario, config, threads), serial);
  }
}

TEST(Determinism, ChurnScheduleIdenticalAcrossThreadCounts) {
  // Node churn (crashes, uninstalls, server stalls) is decided by pure
  // hashes and applied by the driver thread between rounds, so the whole
  // lifecycle — who crashed when, which rejoin landed, what got lost —
  // must replay byte-for-byte at any thread count, for every seed.
  const world::Scenario scenario = SmallCoffee();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("node seed " + std::to_string(seed));
    FieldTestConfig config = SmallConfig(7);
    net::NodeFaultRule phones;
    phones.endpoint = "phone:*";
    phones.crash = 0.01;
    phones.restart_after = SimDuration{30'000};
    phones.uninstall = 0.004;
    phones.reinstall_after = SimDuration{40'000};
    net::NodeFaultRule server;
    server.endpoint = "server";
    server.stall = 0.02;
    server.stall_for = SimDuration{20'000};
    config.node_rules = {phones, server};
    config.node_seed = seed;
    config.drain_ticks = 12;

    const std::string serial = RunFingerprint(scenario, config, 1);
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EXPECT_EQ(RunFingerprint(scenario, config, threads), serial);
    }
  }
}

TEST(Determinism, ThrottleScheduleIdenticalAcrossThreadCounts) {
  // Overload control: admissions are budgeted per tick inside the epoch
  // merge pass, throttle hints pace the phones, and the retry budget
  // abandons dead campaigns — all of it a pure function of the admission
  // order, so the shed/throttle schedule is part of the contract too.
  const world::Scenario scenario = SmallCoffee();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FieldTestConfig config = SmallConfig(seed);
    config.overload.ingest_budget = 5;  // 12 phones want ~12/tick: 2.4x
    config.overload.throttle_at = 0.6;
    config.overload.stale_after = SimDuration{15'000};
    config.overload.retry_after = SimDuration{12'000};
    config.phone_retry_budget = 12;
    config.drain_ticks = 40;

    const std::string serial = RunFingerprint(scenario, config, 1);
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EXPECT_EQ(RunFingerprint(scenario, config, threads), serial);
    }
  }
}

// Run with tracing on and fold the trace fingerprint into the string: local
// q repair (incremental) and whole-log replay on every leave (not) must
// produce the same rankings and counters, and emit the same
// kSchedulePlanned / kScheduleCommitted / kScheduleDistributed event
// stream, byte for byte. Beside every plan of the run, the cold-replan
// oracle (tests/planner_oracle.hpp) must hold the app's pre-delta members,
// picks with their seqs, and total coverage.
std::string RunModeFingerprint(const world::Scenario& scenario,
                               FieldTestConfig config, int threads,
                               bool incremental) {
  config.threads = threads;
  config.incremental_scheduling = incremental;
  config.trace = true;
  System system;
  sched::oracle::SchedulerLockstep oracle;
  oracle.Attach(system.server().scheduler());
  Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
  EXPECT_TRUE(run.ok()) << run.error().str();
  EXPECT_GT(oracle.plans(), 0u);
  EXPECT_EQ(oracle.mismatch_count(), 0u);
  for (const std::string& m : oracle.mismatches()) ADD_FAILURE() << m;
  if (!run.ok()) return "<error>";
  return Fingerprint(run.value()) +
         "\ntrace:" + std::to_string(run.value().trace_fingerprint);
}

TEST(Determinism, IncrementalMatchesColdReplanAcrossMatrix) {
  // Warm-started O(delta) planning is a pure optimization. Over the full
  // determinism matrix both leave-repair modes produce identical
  // fingerprints — including the trace — at every thread count, and every
  // plan matches the cold-replan oracle.
  const world::Scenario scenarios[] = {SmallCoffee(), SmallTrail()};
  int which = 0;
  for (const world::Scenario& scenario : scenarios) {
    SCOPED_TRACE(which++ == 0 ? "coffee" : "trail");
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(
            RunModeFingerprint(scenario, SmallConfig(seed), threads, true),
            RunModeFingerprint(scenario, SmallConfig(seed), threads, false));
      }
    }
  }
}

TEST(Determinism, IncrementalMatchesColdReplanUnderChaos) {
  // Chaos faults make distribution fail mid-plan and trigger resyncs; the
  // planner must still track the cold-replan oracle bit for bit.
  const world::Scenario scenario = SmallCoffee();
  FieldTestConfig config = SmallConfig(3);
  net::FaultRule lossy;
  lossy.drop = 0.3;
  lossy.corrupt = 0.2;
  lossy.duplicate = 0.2;
  net::FaultRule partition;
  partition.partition = SimInterval{SimTime{600'000}, SimTime{660'000}};
  config.chaos_rules = {lossy, partition};
  config.chaos_seed = 17;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(RunModeFingerprint(scenario, config, threads, true),
              RunModeFingerprint(scenario, config, threads, false));
  }
}

TEST(Determinism, IncrementalMatchesColdReplanUnderChurn) {
  // Node churn exercises the leave path: crashes and uninstalls force the
  // planner through support-local repair (incremental) vs full q replay
  // (not), and the oracle replays q from scratch at every plan. All three
  // must agree numerically to the last bit, or rankings diverge here first.
  // At σ = 60 s a single killed pick's support already exceeds the
  // planner's rebuild_fraction of the 120-instant grid, so every leave
  // replays; σ = 15 s keeps one or two kills below it and runs the local
  // repair.
  const world::Scenario scenario = SmallCoffee();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("node seed " + std::to_string(seed));
    FieldTestConfig config = SmallConfig(7);
    if (seed > 5) config.sigma_s = 15.0;
    net::NodeFaultRule phones;
    phones.endpoint = "phone:*";
    phones.crash = 0.01;
    phones.restart_after = SimDuration{30'000};
    phones.uninstall = 0.004;
    phones.reinstall_after = SimDuration{40'000};
    net::NodeFaultRule server;
    server.endpoint = "server";
    server.stall = 0.02;
    server.stall_for = SimDuration{20'000};
    config.node_rules = {phones, server};
    config.node_seed = seed;
    config.drain_ticks = 12;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EXPECT_EQ(RunModeFingerprint(scenario, config, threads, true),
                RunModeFingerprint(scenario, config, threads, false));
    }
  }
}

TEST(Determinism, DeferredSetupReschedulesIdenticalAcrossThreadCounts) {
  // Deferred mode changes the setup schedule stream (one plan per app, not
  // one per join) so it is NOT byte-identical to eager mode — but it must
  // still be thread-count-invariant, since FlushReschedules plans in
  // parallel and distributes serially.
  const world::Scenario scenario = SmallCoffee();
  FieldTestConfig config = SmallConfig(4);
  config.defer_setup_reschedules = true;

  const std::string serial = RunFingerprint(scenario, config, 1);
  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(RunFingerprint(scenario, config, threads), serial);
  }
}

// `sor trace --chaos --fingerprint --scenario S --seed N` run through the
// library: the CLI's campaign and its canned chaos wire (tools/sor_cli.cpp).
std::uint64_t ChaosTraceFingerprint(const world::Scenario& scenario,
                                    std::uint64_t seed, int threads) {
  FieldTestConfig config;
  config.budget_per_user = 40;
  config.seed = seed;
  config.threads = threads;
  config.trace = true;
  net::FaultRule lossy;
  lossy.drop = 0.25;
  lossy.corrupt = 0.15;
  lossy.duplicate = 0.15;
  net::FaultRule partition;
  partition.partition = SimInterval{SimTime{600'000}, SimTime{660'000}};
  config.chaos_rules = {lossy, partition};
  config.chaos_seed = seed * 31 + 7;
  System system;
  Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
  EXPECT_TRUE(run.ok()) << run.error().str();
  return system.tracer().Fingerprint();
}

TEST(Determinism, ChaosTraceFingerprintsMatchPinnedValues) {
  // Thread invariance alone passes a change that shifts the output the same
  // way at every thread count. These values pin the output itself: a change
  // that claims byte-identical output must leave them as they are, and one
  // that changes the output on purpose updates them and says why.
  struct Pin {
    const char* scenario;
    std::uint64_t seed;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"coffee", 1, 0xe5dcb22eb6841ed4}, {"coffee", 2, 0x7299b81c942c8059},
      {"coffee", 3, 0x59dfc57e2fb5e7b8}, {"trails", 1, 0x2a47dad918537efa},
      {"trails", 2, 0xbcd23fb23899fc5c}, {"trails", 3, 0x598d2d7934f1f8cc},
  };
  for (const Pin& pin : pins) {
    const world::Scenario scenario =
        std::string(pin.scenario) == "coffee"
            ? world::MakeCoffeeShopScenario()
            : world::MakeHikingTrailScenario();
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(pin.scenario) + " seed " +
                   std::to_string(pin.seed) + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(ChaosTraceFingerprint(scenario, pin.seed, threads),
                pin.fingerprint);
    }
  }
}

TEST(Determinism, FieldTestRankingsMatchPinnedText) {
  // `sor fieldtest --scenario S --rankings-out -`: the default campaign's
  // rankings, pinned like the fingerprints above.
  FieldTestConfig config;
  config.budget_per_user = 40;
  config.sigma_s = 60.0;
  config.seed = 42;
  const std::pair<world::Scenario, const char*> cases[] = {
      {world::MakeCoffeeShopScenario(),
       "David: Starbucks > B&N Cafe > Tim Hortons\n"
       "Emma: B&N Cafe > Tim Hortons > Starbucks\n"},
      {world::MakeHikingTrailScenario(),
       "Alice: Cliff Trail > Long Trail > Green Lake Trail\n"
       "Bob: Long Trail > Cliff Trail > Green Lake Trail\n"
       "Chris: Green Lake Trail > Long Trail > Cliff Trail\n"},
  };
  for (const auto& [scenario, pinned] : cases) {
    System system;
    Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
    ASSERT_TRUE(run.ok()) << run.error().str();
    EXPECT_EQ(RenderRankingsText(run.value().matrix, run.value().rankings),
              pinned);
  }
}

}  // namespace
}  // namespace sor::core
