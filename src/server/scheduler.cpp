#include "server/scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/log.hpp"

namespace sor::server {

namespace {

// Durable schedule-row blob: the legacy prefix (varint count + svarint
// delta-encoded instant times, what the post-restart resync re-pushes) is
// followed by each pick's grid index and commit seq — the planner's commit
// log, which RebuildFromDb replays to reproduce the planning state.
std::vector<std::uint8_t> EncodeTaskRowBlob(
    const std::vector<sched::IncrementalPlanner::Pick>& picks,
    const std::vector<SimTime>& grid) {
  ByteWriter blob;
  blob.varint(picks.size());
  std::int64_t prev = 0;
  for (const sched::IncrementalPlanner::Pick& p : picks) {
    const SimTime t = grid[static_cast<std::size_t>(p.instant)];
    blob.svarint(t.ms - prev);
    prev = t.ms;
  }
  for (const sched::IncrementalPlanner::Pick& p : picks) {
    blob.varint(static_cast<std::uint64_t>(p.instant));
    blob.varint(p.seq);
  }
  return blob.take();
}

}  // namespace

Status SensingScheduler::RescheduleApp(const ApplicationRecord& app,
                                       ParticipationManager& participations,
                                       SimDuration sample_window,
                                       int samples_per_window) {
  if (deferred_) {
    // Batch mode: remember that this app needs a fresh plan; the owner
    // plans once per dirty app instead of once per join/leave event.
    dirty_.insert(app.id.value());
    return Status::Ok();
  }
  Result<SchedulePlan> plan = PlanApp(app, participations);
  if (!plan.ok()) return plan.error();
  return DistributePlan(app, plan.value(), participations, sample_window,
                        samples_per_window);
}

void SensingScheduler::EnsurePlanState(const ApplicationRecord& app) {
  auto it = plan_states_.find(app.id.value());
  if (it != plan_states_.end()) return;
  sched::IncrementalPlanner::Options opts;
  opts.sigma_s = app.spec.sigma_s;
  opts.algorithm = algorithm_;
  if (!options_.incremental) opts.rebuild_fraction = 0.0;
  PlanState st;
  st.planner = std::make_unique<sched::IncrementalPlanner>(
      MakeInstantGrid(app.spec.period, app.spec.n_instants), opts);
  plan_states_.emplace(app.id.value(), std::move(st));
}

void SensingScheduler::MarkTaskUnsent(const ApplicationRecord& app,
                                      TaskId task) {
  EnsurePlanState(app);
  plan_states_.at(app.id.value()).unsent.insert(task.value());
}

Result<SchedulePlan> SensingScheduler::PlanApp(
    const ApplicationRecord& app,
    const ParticipationManager& participations) {
  EnsurePlanState(app);
  PlanState& st = plan_states_.at(app.id.value());
  sched::IncrementalPlanner& planner = *st.planner;

  SchedulePlan plan;
  plan.grid = planner.grid();
  const SimTime now = clock_.now();

  // The planner's members are exactly the tasks that were active at this
  // app's last plan, so only tasks whose participation changed since then
  // can differ: an active task the planner does not know is a join, an
  // inactive member is a leave. Tasks awaiting a (re)send are read too —
  // their dispatch needs the record, and one that closed drops out.
  const std::set<std::uint64_t>& changed = participations.ChangedTasks(app.id);
  std::vector<std::uint64_t> visit;
  visit.reserve(changed.size() + st.unsent.size());
  std::set_union(changed.begin(), changed.end(), st.unsent.begin(),
                 st.unsent.end(), std::back_inserter(visit));

  std::map<std::uint64_t, ParticipationRecord> active;
  std::vector<sched::IncrementalPlanner::Join> joins;
  std::vector<sched::IncrementalPlanner::Leave> leaves;
  for (std::uint64_t task : visit) {  // ascending: joins/leaves come sorted
    Result<ParticipationRecord> rec = participations.Get(TaskId{task});
    const auto member = static_cast<std::int64_t>(task);
    if (!rec.ok() || !IsOpenStatus(rec.value().status)) {
      if (!planner.HasMember(member)) continue;
      sched::IncrementalPlanner::Leave l;
      l.member = member;
      l.cutoff = now;
      if (rec.ok() && rec.value().leave.has_value())
        l.cutoff = *rec.value().leave;
      leaves.push_back(l);
      continue;
    }
    if (!planner.HasMember(member)) {
      sched::IncrementalPlanner::Join j;
      j.member = member;
      SimTime begin = rec.value().arrive;
      if (online_aware_ && now > begin) begin = now;  // the past is gone
      j.window =
          SimInterval{begin, rec.value().leave.value_or(app.spec.period.end)}
              .intersect(app.spec.period);
      j.budget = rec.value().budget_left;
      joins.push_back(j);
    }
    active.emplace(task, std::move(rec).value());
  }
  if (delta_observer_) delta_observer_(app, planner, leaves, joins);

  // Tasks that stopped being active never get their pending re-send.
  std::erase_if(st.unsent,
                [&](std::uint64_t t) { return !active.contains(t); });

  if (leaves.empty() && joins.empty() && st.unsent.empty()) {
    plan.empty = true;
    return plan;
  }

  Result<sched::IncrementalPlanner::DeltaResult> delta =
      planner.ApplyDelta(leaves, joins);
  if (!delta.ok()) return delta.error();
  plan.active_count = planner.num_members();
  plan.objective_delta = delta.value().objective;
  plan.gain_evaluations = delta.value().gain_evaluations;
  plan.total_coverage = planner.total_coverage();
  for (auto& [member, picks] : delta.value().pruned) {
    plan.pruned.emplace_back(static_cast<std::uint64_t>(member),
                             std::move(picks));
  }

  // Every join needs its (first) schedule pushed; previously-failed or
  // rejoined tasks are already in `unsent`.
  for (const sched::IncrementalPlanner::Join& j : joins)
    st.unsent.insert(static_cast<std::uint64_t>(j.member));
  for (std::uint64_t task : st.unsent) {
    SchedulePlan::Dispatch d;
    d.rec = active.at(task);
    d.picks = planner.PicksOf(static_cast<std::int64_t>(task));
    plan.dispatches.push_back(std::move(d));
  }

  if (plan.dispatches.empty() && plan.pruned.empty()) plan.empty = true;
  return plan;
}

void SensingScheduler::AttachObservability(obs::MetricsRegistry& registry,
                                           obs::Tracer* tracer,
                                           obs::StreamId stream) {
  tracer_ = tracer;
  stream_ = stream;
  obs_.reschedules = &registry.counter("sched.reschedules");
  obs_.schedules_distributed = &registry.counter("sched.schedules_distributed");
  obs_.distribution_failures = &registry.counter("sched.distribution_failures");
  obs_.gain_evaluations = &registry.counter("sched.gain_evaluations");
  obs_.last_objective = &registry.gauge("sched.last_objective");
  obs_.last_average_coverage = &registry.gauge("sched.last_average_coverage");
}

SchedulerStats SensingScheduler::stats() const {
  SchedulerStats s;
  s.reschedules = obs_.reschedules->value();
  s.schedules_distributed = obs_.schedules_distributed->value();
  s.distribution_failures = obs_.distribution_failures->value();
  s.gain_evaluations = obs_.gain_evaluations->value();
  s.last_objective = obs_.last_objective->value();
  s.last_average_coverage = obs_.last_average_coverage->value();
  return s;
}

void SensingScheduler::PersistTaskRow(
    PlanState& st, std::uint64_t task, std::uint64_t app,
    const std::vector<sched::IncrementalPlanner::Pick>& picks,
    const std::vector<SimTime>& grid) {
  db::Table* schedules = db_.table(db::tables::kSchedules);
  std::vector<std::uint8_t> blob = EncodeTaskRowBlob(picks, grid);
  if (auto it = st.row_of.find(task); it != st.row_of.end()) {
    // One row per task: later plans (a resync push, a leave prune) assign
    // the blob in place instead of appending a fresh row per replan.
    const std::pair<int, db::Value> cells[] = {
        {3, db::Value(std::move(blob))}, {4, db::Value(clock_.now().ms)}};
    (void)schedules->UpdateInPlace(db::Value(it->second), cells);
    return;
  }
  const std::uint64_t pk = schedule_ids_.next().value();
  Result<db::RowId> inserted = schedules->Insert(
      {db::Value(pk), db::Value(task), db::Value(app),
       db::Value(std::move(blob)), db::Value(clock_.now().ms)});
  // Under storage faults the insert may fail; leaving `row_of` unset means
  // the next persist retries with a fresh row.
  if (inserted.ok()) st.row_of.emplace(task, pk);
}

Status SensingScheduler::DistributePlan(const ApplicationRecord& app,
                                        const SchedulePlan& plan,
                                        ParticipationManager& participations,
                                        SimDuration sample_window,
                                        int samples_per_window) {
  // PlanApp has consumed the app's change feed. Cleared here, serially,
  // before any dispatch: a MarkError below is a change the NEXT plan must
  // see (the refusing task leaves the planner then).
  participations.ClearChanged(app.id);
  if (plan.empty) return Status::Ok();
  PlanState& st = plan_states_.at(app.id.value());

  obs_.reschedules->Inc();
  obs_.gain_evaluations->Inc(plan.gain_evaluations);
  obs_.last_objective->Set(plan.objective_delta);
  obs_.last_average_coverage->Set(plan.total_coverage /
                                  static_cast<double>(plan.grid.size()));
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  if (tracing) {
    // The planning milestone is emitted here, not from PlanApp: PlanApp may
    // run on a worker thread (FlushReschedules), while distribution is
    // always serial — so the event order is thread-count invariant.
    tracer_->Emit(stream_, clock_.now(), obs::EventKind::kSchedulePlanned,
                  app.id.value(), plan.active_count,
                  static_cast<std::uint64_t>(plan.objective_delta * 1000.0));
  }

  // Departed tasks first: shrink their durable rows to the executed picks,
  // so a restore replays exactly the coverage that is actually sunk.
  for (const auto& [task, picks] : plan.pruned) {
    PersistTaskRow(st, task, app.id.value(), picks, plan.grid);
    st.unsent.erase(task);
  }

  Status overall = Status::Ok();
  for (const SchedulePlan::Dispatch& d : plan.dispatches) {
    const ParticipationRecord& rec = d.rec;
    ScheduleDistribution msg;
    msg.task = rec.task;
    msg.app = app.id;
    msg.script = app.spec.script;
    msg.sample_window = sample_window;
    msg.samples_per_window = samples_per_window;
    msg.required_sensors = app.required_sensors;
    msg.flow_manifest = app.flow_manifest;
    for (const sched::IncrementalPlanner::Pick& p : d.picks)
      msg.instants.push_back(plan.grid[static_cast<std::size_t>(p.instant)]);

    // Persist the schedule before distribution (resync re-pushes the stored
    // row verbatim, so store-then-send keeps restart byte-identical).
    PersistTaskRow(st, rec.task.value(), app.id.value(), d.picks, plan.grid);
    if (tracing) {
      tracer_->Emit(stream_, clock_.now(),
                    obs::EventKind::kScheduleCommitted, rec.task.value(), 0,
                    app.id.value());
    }

    Result<Message> reply =
        network_.Send(origin_, "phone:" + rec.token.value, msg);
    if (reply.ok()) {
      obs_.schedules_distributed->Inc();
      if (tracing) {
        tracer_->Emit(stream_, clock_.now(),
                      obs::EventKind::kScheduleDistributed, rec.task.value(),
                      msg.instants.size(), app.id.value());
      }
      st.unsent.erase(rec.task.value());
      (void)participations.MarkRunning(rec.task);
    } else {
      obs_.distribution_failures->Inc();
      SOR_LOG(kWarn, "scheduler",
              "failed to distribute schedule for task "
                  << rec.task.str() << ": " << reply.error().str());
      // The transport unwraps a delivered ErrorReply into a local error, so
      // the phone's capability refusal arrives here as kUnsupported. That
      // code is permanent (the sensor will not appear), so mark the
      // participation errored; transient faults (kUnavailable partitions,
      // kTimeout drops) stay in `unsent` and retry at the app's next
      // reschedule — the same cadence the full redistribution gave them.
      if (reply.error().code == Errc::kUnsupported) {
        (void)participations.MarkError(rec.task, reply.error().message);
        st.unsent.erase(rec.task.value());
      }
      overall = Status(reply.error());
    }
  }
  return overall;
}

std::vector<std::uint64_t> SensingScheduler::TakeDirtyApps() {
  std::vector<std::uint64_t> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

void SensingScheduler::ResyncIds() {
  if (auto max = db_.table(db::tables::kSchedules)->MaxPrimaryKey())
    schedule_ids_.advance_past(static_cast<std::uint64_t>(max->as_int()));
}

void SensingScheduler::RebuildFromDb(
    const std::vector<ApplicationRecord>& apps,
    ParticipationManager& participations) {
  plan_states_.clear();
  for (const ApplicationRecord& app : apps) {
    EnsurePlanState(app);
    PlanState& st = plan_states_.at(app.id.value());
    // Members become exactly the active set below, so no earlier change
    // is pending against the rebuilt planner.
    participations.ClearChanged(app.id);
    // Active tasks are members even before their row is replayed (a task
    // planned with zero picks still has a row, but be tolerant of a
    // pre-distribution crash leaving an active task rowless — it will be
    // re-planned as a join at the app's next reschedule).
    for (const ParticipationRecord& rec : participations.ActiveForApp(app.id))
      st.planner->RestoreMember(static_cast<std::int64_t>(rec.task.value()));
  }
  const db::Table* schedules = db_.table(db::tables::kSchedules);
  schedules->ForEach([&](const db::Row& row) {
    const auto app_id = static_cast<std::uint64_t>(row[2].as_int());
    auto it = plan_states_.find(app_id);
    if (it == plan_states_.end()) return true;
    PlanState& st = it->second;
    const auto task = static_cast<std::uint64_t>(row[1].as_int());
    ByteReader blob(row[3].as_blob());
    const std::uint64_t count = blob.varint();
    for (std::uint64_t i = 0; i < count && blob.ok(); ++i)
      (void)blob.svarint();  // legacy prefix: delta-encoded instant times
    for (std::uint64_t i = 0; i < count && blob.ok(); ++i) {
      const auto instant = static_cast<int>(blob.varint());
      const std::uint64_t seq = blob.varint();
      if (!blob.ok()) break;
      // Rows of finished tasks replay as ownerless sunk coverage: their
      // member is not registered, but their picks still shape q.
      st.planner->RestoreCommit(static_cast<std::int64_t>(task), instant,
                                seq);
    }
    st.row_of.emplace(task, static_cast<std::uint64_t>(row[0].as_int()));
    return true;
  });
  for (auto& [app_id, st] : plan_states_) st.planner->FinishRestore();
}

}  // namespace sor::server
