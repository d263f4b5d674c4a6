// sor::core::System — the whole SOR deployment in one object.
//
// This is the top of the public API: it stands up a sensing server, builds
// the simulated world (places + phones) for a Scenario, runs the complete
// §II workflow — barcode scan → participation → online scheduling →
// script-driven sensing → binary upload → data processing → personalizable
// ranking — on the simulated clock, and returns the feature matrix and the
// per-profile rankings (the paper's Fig. 6/10 data and Table I/II).
//
// Examples and benches drive everything through this facade; tests also
// reach into the exposed components for white-box checks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sharded_executor.hpp"
#include "common/sim_time.hpp"
#include "db/storage_faults.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phone/frontend.hpp"
#include "rank/personalizable_ranker.hpp"
#include "server/server.hpp"
#include "server/visualization.hpp"
#include "world/phone_agent.hpp"
#include "world/scenarios.hpp"

namespace sor::core {

struct FieldTestConfig {
  int budget_per_user = 40;            // N^B_k for every participant
  SimDuration tick = SimDuration{10'000};  // simulation step
  int n_instants = 1080;               // N (matches §V-C's grid density)
  double sigma_s = 60.0;               // coverage σ for the app's schedule
  std::uint64_t seed = 42;
  rank::AggregationMethod aggregation =
      rank::AggregationMethod::kFootruleMcmf;
  server::SchedulerAlgorithm scheduler_algorithm =
      server::SchedulerAlgorithm::kLazyGreedy;
  bool leave_at_end = true;            // send LeaveNotifications at tE
  // Incremental replanning (docs/performance.md): joins/leaves are planned
  // as deltas against per-app residual-coverage state and only changed
  // schedules are distributed. false replays q from the whole commit log on
  // every leave instead of repairing it locally (SchedulerOptions) — the
  // same plans; the cold-replan oracle is tests/planner_oracle.hpp.
  bool incremental_scheduling = true;

  // --- sharded runtime (docs/runtime.md) ---------------------------------
  // Worker threads for the tick loop and server-side batch stages. Any
  // value yields byte-identical results: every campaign tick is one
  // two-phase epoch — phones sense and encode wait-free in phase A, then
  // one merge pass on the driver thread delivers all sends in (rank, send
  // order) in phase B. Serial and parallel runs share that path, so the
  // handler order is identical by construction; threads only overlap the
  // pure per-phone compute (scripts, sensors, frame encoding).
  int threads = 1;
  // Batch the per-join reschedule storm during setup: joins mark apps dirty
  // and one plan per app is flushed after the last scan. O(P) instead of
  // O(P²) scheduler work — results differ from eager per-join replanning
  // (fewer intermediate schedules), so it is opt-in; large benches use it.
  bool defer_setup_reschedules = false;
  // Streaming feature extraction (docs/performance.md): per-app
  // accumulators fed only by new uploads. false resets each app's
  // accumulator to cursor 0 before every pass (DataProcessorOptions) — the
  // same feature rows; the decode-everything oracle is
  // tests/processor_oracle.hpp.
  bool incremental_processing = true;

  // --- chaos harness -----------------------------------------------------
  // Fault rules armed AFTER deployment + participation succeed (the
  // campaign must start; the paper's field test assumes the scan worked)
  // and cleared again before the drain phase, so queued retries can flush.
  std::vector<net::FaultRule> chaos_rules;
  std::uint64_t chaos_seed = 0;       // seed for the fault-decision stream
  int drain_ticks = 8;                // fault-free ticks after the period

  // --- node + storage fault domains (docs/robustness.md) ------------------
  // Churn rules: seeded phone crash/restart and uninstall/reinstall, plus
  // server stall ticks. Decisions are pure hashes of (node_seed, endpoint,
  // tick), so arming them never shifts the link-fault schedule. Applied by
  // the driver thread between epoch rounds (outboxes empty, phones idle);
  // cleared (like chaos_rules) before the drain so downed nodes can rejoin
  // and queues can flush.
  std::vector<net::NodeFaultRule> node_rules;
  std::uint64_t node_seed = 0;
  // Storage rules: seeded raw_data write failures + scripted fail-next.
  // Determinism contract (db/storage_faults.hpp): arm only tables whose
  // writes happen inside the merge pass (raw_data), never "*".
  std::vector<db::StorageFaultRule> storage_rules;
  std::uint64_t storage_seed = 0;
  // Server overload policy; the default (budget 0) admits everything.
  server::OverloadConfig overload;
  // Per-campaign retry budget handed to every phone (0 = unlimited).
  int phone_retry_budget = 0;

  // --- telemetry (src/obs, docs/observability.md) --------------------------
  // Record the deterministic event trace of the campaign. The trace (and
  // its fingerprint in FieldTestResult) is byte-identical across `threads`
  // values; read it back via System::tracer() after the run.
  bool trace = false;
  std::size_t trace_ring_capacity = 1 << 16;  // events retained per stream
};

struct FieldTestResult {
  std::vector<AppId> app_ids;          // one application per place
  rank::FeatureMatrix matrix;          // H, as read back from the database
  // One outcome per scenario profile, in profile order.
  std::vector<std::pair<std::string, rank::RankingOutcome>> rankings;

  // System-level statistics for reporting.
  server::ServerStats server_stats;
  server::DataProcessorStats processor_stats;
  net::TransportStats transport_stats;
  std::uint64_t total_uploads = 0;
  std::uint64_t total_upload_failures = 0;
  // Aggregated robustness counters across all phones (chaos reporting).
  std::uint64_t total_uploads_retried = 0;
  std::uint64_t total_uploads_dropped = 0;
  std::uint64_t total_leaves_retried = 0;
  // Overload + churn accounting (docs/robustness.md).
  std::uint64_t total_uploads_throttled = 0;  // ThrottleReplies phones saw
  std::uint64_t total_uploads_abandoned = 0;  // retry budgets exhausted
  std::uint64_t total_crashes = 0;            // phone crash events
  std::uint64_t total_restarts = 0;           // successful crash rejoins
  std::uint64_t total_reinstalls = 0;         // successful reinstall rejoins
  std::uint64_t server_stall_ticks = 0;       // ticks the server was stalled
  std::uint64_t peak_pending_uploads = 0;     // fleet-wide queue-depth peak
  // Sensing energy across all phones (mJ): what was spent on physical
  // acquisitions and what the shared provider buffers saved.
  double energy_spent_mj = 0.0;
  double energy_saved_mj = 0.0;

  // FNV-1a over the campaign's merged trace (0-events hash when tracing is
  // off): the value the determinism tests compare across thread counts.
  std::uint64_t trace_fingerprint = 0;

  // Place names in final order for a given profile index.
  [[nodiscard]] std::vector<std::string> RankedNames(std::size_t profile) const {
    return rankings[profile].second.OrderedNames(matrix);
  }
};

// The per-category default sensing-task script (the paper's Fig. 4 Lua,
// in SenseScript).
[[nodiscard]] std::string DefaultScript(world::PlaceCategory category);

class System {
 public:
  System();
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Run one complete sensing campaign over the scenario.
  [[nodiscard]] Result<FieldTestResult> RunFieldTest(
      const world::Scenario& scenario, const FieldTestConfig& config = {});

  // --- component access (white-box tests, examples) ---------------------
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] net::LoopbackNetwork& network() { return network_; }
  [[nodiscard]] server::SensingServer& server() { return *server_; }
  [[nodiscard]] std::vector<std::unique_ptr<phone::MobileFrontend>>&
  frontends() {
    return frontends_;
  }
  // The system-wide telemetry: every component (transport links, phones,
  // server, scheduler, data processor) reports into this one registry, and
  // — with FieldTestConfig::trace — into this one tracer.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return registry_; }
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }

 private:
  // Advance the clock `n` ticks, ticking every frontend each step. Each
  // tick is one delivery epoch: phones tick (in parallel shards when an
  // executor is up), collecting sends wait-free; then the driver thread
  // merges and delivers the epoch's outboxes in rank order.
  void RunTicks(int n, SimDuration tick);

  // Churn driver state for one campaign (null when node_rules are empty).
  struct ChurnContext {
    enum class Phase : std::uint8_t { kUp, kCrashed, kUninstalled };
    struct PhoneState {
      Phase phase = Phase::kUp;
      SimTime due;  // earliest restart/reinstall time while down
    };
    std::vector<PhoneState> phones;   // parallel to frontends_
    std::vector<BarcodePayload> barcodes;  // per phone, for reinstalls
    int budget = 0;                   // budget_per_user, for rejoins
    bool server_can_stall = false;    // some rule matches the server
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t reinstalls = 0;
    std::uint64_t stall_ticks = 0;
  };

  // Apply node-lifecycle events for the current tick: crash/uninstall live
  // phones, stall the server, and rejoin downed phones whose downtime has
  // elapsed. Runs on the driver thread BETWEEN epoch rounds — outboxes are
  // empty and no shard is running, so a crash never orphans queued sends
  // and a rejoin's schedule push lands on an idle phone — making the event
  // sequence identical at every thread count.
  void ApplyNodeEvents();

  SimClock clock_;
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
  obs::StreamId system_stream_ = 0;  // campaign-level events (ranking_done)
  net::LoopbackNetwork network_;
  std::unique_ptr<ShardedExecutor> executor_;  // non-null while threads > 1
  std::unique_ptr<ChurnContext> churn_;        // non-null while churn is armed
  db::StorageFaultInjector storage_faults_;
  std::uint64_t peak_pending_ = 0;  // fleet queue-depth peak, this campaign
  std::unique_ptr<server::SensingServer> server_;
  std::vector<std::unique_ptr<world::PhoneAgent>> agents_;
  std::vector<std::unique_ptr<phone::MobileFrontend>> frontends_;
  // Phones/tokens are numbered across campaigns so one System can host
  // several consecutive field tests (multi-category deployments: "SOR can
  // certainly deal with multiple categories", §IV-A).
  std::uint64_t next_phone_ = 1;
};

}  // namespace sor::core
