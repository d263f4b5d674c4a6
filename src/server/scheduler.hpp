// SensingScheduler (§II-B): bridges the Participation Manager's runtime
// state to the scheduling algorithm of §III, then distributes the computed
// schedules (with the app's SenseScript) to the participating phones and
// stores them in the database.
//
// "For each application, the Sensing Scheduler applies an online algorithm
// to calculate a sensing schedule ... based on runtime participation
// information (such as current participating users, their sensing budgets)
// ... The Sensing Scheduler will also distribute the calculated schedules
// along with the corresponding Lua scripts to participating mobile phones,
// and store them into the database."
//
// Incremental replanning (docs/performance.md): the scheduler keeps one
// IncrementalPlanner per app ALIVE across reschedules. A reschedule reads
// only the tasks the Participation Manager reports as changed since the
// app's last plan (ParticipationManager::ChangedTasks) — an active task the
// planner does not know is a join (placed against the residual coverage in
// one warm-started greedy run), an inactive member is a leave (its
// unexecuted picks die, its durable schedule row is pruned to the executed
// prefix). Since placed picks never move, only the CHANGED tasks are
// re-sent: a join reads and pushes O(1) schedules instead of O(fleet), and
// the schedules table holds one row per task instead of one per (task,
// replan). The cold replan the planner is held to is test code
// (tests/planner_oracle.hpp), attached through set_delta_observer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "db/database.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sched/incremental.hpp"
#include "server/managers.hpp"

namespace sor::server {

// Lazy greedy (the default) or the §V-C periodic baseline, for
// head-to-head system experiments.
using SchedulerAlgorithm = sched::PlacementAlgorithm;

struct SchedulerOptions {
  // false replays each app's q from its whole commit log on every leave
  // (the planner's rebuild_fraction = 0), as a restore does. Same plans
  // either way.
  bool incremental = true;
};

// A view over the "sched.*" metrics of the scheduler's registry.
struct SchedulerStats {
  std::uint64_t reschedules = 0;
  std::uint64_t schedules_distributed = 0;
  std::uint64_t distribution_failures = 0;
  std::uint64_t gain_evaluations = 0;  // marginal-gain probes, all replans
  double last_objective = 0.0;         // coverage ADDED by the last delta
  double last_average_coverage = 0.0;  // total locked-in coverage / instants
};

// The output of one reschedule delta for one app: everything the
// distribution stage needs, with no references into scheduler state. Plans
// for different apps can be computed concurrently (their planner states are
// disjoint; the owner creates them serially via EnsurePlanState first).
struct SchedulePlan {
  struct Dispatch {
    ParticipationRecord rec;
    // The task's full current plan (instant index + commit seq, ascending
    // by instant) — new joins and tasks marked unsent get this pushed.
    std::vector<sched::IncrementalPlanner::Pick> picks;
  };
  std::vector<Dispatch> dispatches;  // ascending task id
  // Departed tasks whose durable schedule row shrinks to the picks that
  // were executed before the leave. Nothing is sent — the phone is gone.
  std::vector<std::pair<std::uint64_t, std::vector<sched::IncrementalPlanner::Pick>>>
      pruned;
  std::vector<SimTime> grid;
  std::size_t active_count = 0;  // planner members after the delta
  double objective_delta = 0.0;   // coverage added by this delta's joins
  double total_coverage = 0.0;    // Σ(1 − q) after the delta
  std::uint64_t gain_evaluations = 0;
  bool empty = false;  // no membership change and nothing unsent
};

class SensingScheduler {
 public:
  // `origin` names the sending endpoint so per-link fault rules and
  // transport stats can attribute schedule distributions to this server.
  // Counts land in `registry` until AttachObservability rebinds them.
  SensingScheduler(db::Database& database, net::LoopbackNetwork& network,
                   const SimClock& clock, obs::MetricsRegistry& registry,
                   std::string origin = "server")
      : db_(database), network_(network), clock_(clock),
        origin_(std::move(origin)) {
    AttachObservability(registry, nullptr, 0);
  }

  // Algorithm/options are latched into an app's planner when its state is
  // first created — set them before the campaign starts.
  void set_algorithm(SchedulerAlgorithm a) { algorithm_ = a; }
  [[nodiscard]] SchedulerAlgorithm algorithm() const { return algorithm_; }
  void set_options(const SchedulerOptions& o) { options_ = o; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

  // Online-aware re-planning (default on): a join's presence window is
  // clipped to the future, so its budget is spent where coverage is still
  // missing. Off reproduces the naive full-period window (ablation).
  void set_online_aware(bool v) { online_aware_ = v; }
  [[nodiscard]] bool online_aware() const { return online_aware_; }

  // Recompute the app's schedule delta from current participation state and
  // push schedules to the CHANGED participants. Called whenever a user
  // joins or leaves (the "online" behaviour). In deferred mode the app is
  // only marked dirty; the owner later drains TakeDirtyApps() and runs
  // Plan/Distribute itself (see Server::FlushReschedules).
  Status RescheduleApp(const ApplicationRecord& app,
                       ParticipationManager& participations,
                       SimDuration sample_window, int samples_per_window);

  // Create the app's planner state if absent. Must run serially (it
  // mutates the state map); FlushReschedules calls it for every dirty app
  // before fanning PlanApp out to worker threads.
  void EnsurePlanState(const ApplicationRecord& app);

  // Stage 1: read the app's changed and unsent tasks (one keyed row each),
  // derive the joins and leaves and apply the delta. Safe to call
  // concurrently for DIFFERENT apps once their states exist — it only
  // touches this app's planner plus shared reads of the database and of
  // the change feed.
  [[nodiscard]] Result<SchedulePlan> PlanApp(
      const ApplicationRecord& app,
      const ParticipationManager& participations);

  // Stage 2 (serial): clear the app's change feed, persist the changed
  // schedules, push them to the phones, update stats. Must run on one
  // thread at a time, right after the app's PlanApp (no participation of
  // the app may change in between); callers flush plans in ascending
  // app-id order to keep the send stream deterministic.
  // In a running campaign this executes inside the epoch merge pass (a
  // join/leave delivered by the merge triggers the reschedule) or between
  // ticks — either way the phones are idle, so the synchronous push into
  // each phone is always admitted.
  Status DistributePlan(const ApplicationRecord& app, const SchedulePlan& plan,
                        ParticipationManager& participations,
                        SimDuration sample_window, int samples_per_window);

  // Force a re-send of `task`'s current plan at the next reschedule even if
  // its picks did not change — a crashed-and-restarted phone that rejoins
  // via a new scan holds no schedule anymore.
  void MarkTaskUnsent(const ApplicationRecord& app, TaskId task);

  // Deferred mode: RescheduleApp only records the app id. Used to batch the
  // O(joins) reschedule storm during field-test setup into one plan per app.
  void set_deferred(bool v) { deferred_ = v; }
  [[nodiscard]] bool deferred() const { return deferred_; }
  // Drain the dirty set (ascending app id).
  [[nodiscard]] std::vector<std::uint64_t> TakeDirtyApps();

  // Read from the "sched.*" metrics, so it sees only counts made since the
  // last rebind (and since the registry's last Reset()).
  [[nodiscard]] SchedulerStats stats() const;

  // Rebind the "sched.*" counters/gauges to `registry` (counts already made
  // stay in the old one) and emit plan/commit/distribute events on the
  // owning server's stream. DistributePlan is the only counting and emitting
  // path and it always runs serially, so single-cell counters and one
  // shared stream are safe and deterministic.
  void AttachObservability(obs::MetricsRegistry& registry, obs::Tracer* tracer,
                           obs::StreamId stream);

  // After a snapshot restore, skip schedule ids already in the table.
  void ResyncIds();

  // Snapshot restore: rebuild every app's planner from the schedules table
  // (the durable commit log — each row holds a task's surviving picks with
  // their seqs) and the active participation set, and clear each app's
  // change feed. Replaying the rows in seq order reproduces bitwise the
  // planner state the snapshotted process held.
  void RebuildFromDb(const std::vector<ApplicationRecord>& apps,
                     ParticipationManager& participations);

  // Test hook: PlanApp reports every delta it derives, before applying it,
  // while `planner` still holds the pre-delta members. Runs on the planning
  // thread (a FlushReschedules worker when threads > 1). Empty by default.
  using DeltaObserver = std::function<void(
      const ApplicationRecord& app, const sched::IncrementalPlanner& planner,
      const std::vector<sched::IncrementalPlanner::Leave>& leaves,
      const std::vector<sched::IncrementalPlanner::Join>& joins)>;
  void set_delta_observer(DeltaObserver observer) {
    delta_observer_ = std::move(observer);
  }

 private:
  // Per-app persistent planning state.
  struct PlanState {
    std::unique_ptr<sched::IncrementalPlanner> planner;
    std::set<std::uint64_t> unsent;  // tasks whose plan must be (re)pushed
    std::map<std::uint64_t, std::uint64_t> row_of;  // task → schedules row pk
  };

  void PersistTaskRow(PlanState& st, std::uint64_t task, std::uint64_t app,
                      const std::vector<sched::IncrementalPlanner::Pick>& picks,
                      const std::vector<SimTime>& grid);

  db::Database& db_;
  net::LoopbackNetwork& network_;
  const SimClock& clock_;
  std::string origin_;

  SchedulerAlgorithm algorithm_ = SchedulerAlgorithm::kLazyGreedy;
  SchedulerOptions options_;
  bool online_aware_ = true;
  bool deferred_ = false;
  std::set<std::uint64_t> dirty_;  // apps awaiting a deferred reschedule
  std::map<std::uint64_t, PlanState> plan_states_;
  IdGenerator<ScheduleId> schedule_ids_;
  DeltaObserver delta_observer_;

  // Telemetry handles, bound from construction on (the tracer may be null).
  obs::Tracer* tracer_ = nullptr;
  obs::StreamId stream_ = 0;
  struct SchedCounters {
    obs::Counter* reschedules = nullptr;
    obs::Counter* schedules_distributed = nullptr;
    obs::Counter* distribution_failures = nullptr;
    obs::Counter* gain_evaluations = nullptr;
    obs::Gauge* last_objective = nullptr;
    obs::Gauge* last_average_coverage = nullptr;
  };
  SchedCounters obs_;
};

}  // namespace sor::server
