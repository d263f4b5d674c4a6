#include "server/server.hpp"

#include <chrono>
#include <optional>
#include <set>

#include "codec/bytes.hpp"
#include "common/log.hpp"
#include "common/sharded_executor.hpp"
#include "db/snapshot.hpp"

namespace sor::server {

SensingServer::SensingServer(ServerConfig config,
                             net::LoopbackNetwork& network,
                             const SimClock& clock)
    : config_(std::move(config)),
      network_(network),
      clock_(clock),
      users_(db_),
      apps_(db_),
      parts_(db_, clock_),
      scheduler_(db_, network_, clock_, own_registry_, config_.endpoint_name),
      processor_(db_, own_registry_),
      health_(own_registry_) {
  AttachObservability(nullptr, nullptr);
  db::MakeSorSchema(db_);
  health_.set_config(config_.overload);
  network_.Register(config_.endpoint_name, this);
}

SensingServer::~SensingServer() { network_.Unregister(config_.endpoint_name); }

void SensingServer::AttachObservability(obs::MetricsRegistry* registry,
                                        obs::Tracer* tracer) {
  registry_ = registry != nullptr ? registry : &own_registry_;
  tracer_ = tracer;
  if (tracer_ != nullptr)
    stream_ = tracer_->RegisterStream(config_.endpoint_name);
  scheduler_.AttachObservability(*registry_, tracer, stream_);
  processor_.AttachObservability(*registry_, tracer);
  health_.AttachObservability(*registry_, tracer, stream_);
  db_.AttachObservability(registry_);
  obs::MetricsRegistry& r = *registry_;
  obs_.requests_handled = &r.counter("server.requests_handled");
  obs_.decode_failures = &r.counter("server.decode_failures");
  obs_.uploads_stored = &r.counter("server.uploads_stored");
  obs_.uploads_deduped = &r.counter("server.uploads_deduped");
  obs_.participations_accepted = &r.counter("server.participations_accepted");
  obs_.participations_rejected = &r.counter("server.participations_rejected");
  obs_.recoveries = &r.counter("server.recoveries");
  obs_.resyncs_triggered = &r.counter("server.resyncs_triggered");
  obs_.upload_batch_tuples = &r.histogram(
      "server.upload_batch_tuples", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  // 1µs .. ~4s exponential range, as core.merge_wait_ns.
  obs_.pass_ns = &r.histogram("processor.pass_ns",
                              obs::ExponentialBuckets(1000.0, 4.0, 12));
}

ServerStats SensingServer::stats() const {
  ServerStats s;
  s.requests_handled = obs_.requests_handled->value();
  s.decode_failures = obs_.decode_failures->value();
  s.uploads_stored = obs_.uploads_stored->value();
  s.participations_accepted = obs_.participations_accepted->value();
  s.participations_rejected = obs_.participations_rejected->value();
  s.duplicate_uploads_ignored = obs_.uploads_deduped->value();
  s.recoveries = obs_.recoveries->value();
  s.resyncs_triggered = obs_.resyncs_triggered->value();
  s.uploads_throttled = health_.throttled_total();
  s.uploads_shed_stale = health_.shed_stale_total();
  s.storage_write_failures = health_.storage_failures_total();
  s.reprimes = health_.reprimes_total();
  return s;
}

void SensingServer::Trace(obs::EventKind kind, std::uint64_t a,
                          std::uint64_t b, std::uint64_t c) {
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->Emit(stream_, clock_.now(), kind, a, b, c);
}

Result<BarcodePayload> SensingServer::DeployApplication(
    const ApplicationSpec& spec) {
  Result<AppId> id = apps_.CreateApplication(spec);
  if (!id.ok()) return id.error();
  return apps_.BarcodeFor(id.value(), config_.endpoint_name);
}

Result<int> SensingServer::ProcessAllData() {
  // Wall-clock telemetry only: the observed nanoseconds feed a registry
  // histogram excluded from trace fingerprints, never simulation state.
  const auto start = std::chrono::steady_clock::now();  // det-lint: allow
  Result<int> processed = ProcessEveryApp();
  obs_.pass_ns->Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)  // det-lint: allow
          .count()));
  return processed;
}

Result<int> SensingServer::ProcessEveryApp() {
  const std::vector<ApplicationRecord> all = apps_.All();
  // Pre-register the processor's per-app streams here — serially, in app
  // order — so the parallel path below assigns the same stream ids as the
  // serial one (ProcessApp only looks the names up).
  if (tracer_ != nullptr && tracer_->enabled()) {
    for (const ApplicationRecord& app : all)
      (void)tracer_->RegisterStream(DataProcessor::StreamNameForApp(app.id));
  }
  if (executor_ == nullptr || executor_->threads() <= 1) {
    int total = 0;
    for (const ApplicationRecord& app : all) {
      Result<int> n = processor_.ProcessApp(app, clock_.now());
      if (!n.ok()) return n;
      total += n.value();
    }
    return total;
  }

  // Parallel path: one ProcessApp per app; per-app row sets are disjoint,
  // and each call flushes its counts into per-thread counter cells — no
  // shared mutable state, no mutex. The serial loop stops at the first
  // failure; here every app runs, then the first error *in app order* is
  // reported — same error, same total when everything succeeds (integer
  // sums, the total and the counters alike, are order-independent).
  std::vector<std::optional<Result<int>>> results(all.size());
  const SimTime now = clock_.now();
  executor_->ParallelFor(all.size(), [&](std::size_t i) {
    results[i] = processor_.ProcessApp(all[i], now);
  });
  int total = 0;
  for (const std::optional<Result<int>>& r : results) {
    if (!r.has_value()) continue;
    if (!r->ok()) return *r;
    total += r->value();
  }
  return total;
}

Status SensingServer::FlushReschedules() {
  const std::vector<std::uint64_t> dirty = scheduler_.TakeDirtyApps();
  if (dirty.empty()) return Status::Ok();

  std::vector<ApplicationRecord> records;
  records.reserve(dirty.size());
  for (std::uint64_t id : dirty) {
    Result<ApplicationRecord> rec = apps_.Get(AppId{id});
    if (!rec.ok()) return rec.error();
    records.push_back(std::move(rec).value());
  }

  // Plan in parallel, distribute serially in ascending app-id order —
  // `dirty` is already sorted. Planner states are created serially first:
  // after that each PlanApp touches only its own app's state (plus shared
  // database reads), so the fan-out stays race-free.
  for (const ApplicationRecord& rec : records) scheduler_.EnsurePlanState(rec);
  std::vector<std::optional<Result<SchedulePlan>>> plans(records.size());
  if (executor_ != nullptr && executor_->threads() > 1) {
    executor_->ParallelFor(records.size(), [&](std::size_t i) {
      plans[i] = scheduler_.PlanApp(records[i], parts_);
    });
  } else {
    for (std::size_t i = 0; i < records.size(); ++i)
      plans[i] = scheduler_.PlanApp(records[i], parts_);
  }

  Status overall = Status::Ok();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!plans[i].has_value()) continue;
    if (!plans[i]->ok()) return plans[i]->error();
    Status s = scheduler_.DistributePlan(records[i], plans[i]->value(), parts_,
                                         config_.sample_window,
                                         config_.samples_per_window);
    if (!s.ok()) overall = s;
  }
  return overall;
}

Result<rank::RankingOutcome> SensingServer::RankPlaces(
    const std::vector<AppId>& app_ids,
    const std::vector<rank::FeatureSpec>& feature_specs,
    const rank::UserProfile& profile, rank::AggregationMethod method) const {
  std::vector<ApplicationRecord> records;
  records.reserve(app_ids.size());
  for (AppId id : app_ids) {
    Result<ApplicationRecord> rec = apps_.Get(id);
    if (!rec.ok()) return rec.error();
    records.push_back(std::move(rec).value());
  }
  Result<rank::FeatureMatrix> matrix =
      processor_.BuildFeatureMatrix(records, feature_specs);
  if (!matrix.ok()) return matrix.error();
  const rank::PersonalizableRanker ranker(std::move(matrix).value());
  return ranker.Rank(profile, method);
}

Result<PingReply> SensingServer::PingPhone(const Token& token) {
  Result<Message> reply = network_.Send(config_.endpoint_name,
                                        "phone:" + token.value,
                                        Ping{PhoneId{1}});
  if (!reply.ok()) return reply.error();
  const auto* pong = std::get_if<PingReply>(&reply.value());
  if (pong == nullptr)
    return Error{Errc::kDecodeError, "unexpected reply to ping"};
  return *pong;
}

Result<int> SensingServer::VerifyParticipants(AppId app_id) {
  Result<ApplicationRecord> app = apps_.Get(app_id);
  if (!app.ok()) return app.error();

  int removed = 0;
  for (const ParticipationRecord& rec : parts_.ActiveForApp(app_id)) {
    Result<PingReply> pong = PingPhone(rec.token);
    if (!pong.ok()) {
      // Lost track of the phone entirely: the task can make no progress.
      (void)parts_.MarkError(rec.task, "unreachable: " +
                                           pong.error().str());
      ++removed;
      continue;
    }
    const double dist =
        HaversineMeters(pong.value().location, app.value().spec.location);
    if (dist > app.value().spec.radius_m) {
      SOR_LOG(kInfo, "server",
              "user " << rec.user.str() << " left "
                      << app.value().spec.place_name << " ("
                      << static_cast<int>(dist) << "m away)");
      (void)parts_.MarkFinished(rec.task, clock_.now());
      ++removed;
    }
  }
  if (removed > 0) {
    (void)scheduler_.RescheduleApp(app.value(), parts_,
                                   config_.sample_window,
                                   config_.samples_per_window);
  }
  return removed;
}

Bytes SensingServer::HandleFrame(std::span<const std::uint8_t> frame) {
  obs_.requests_handled->Inc();
  Result<FrameView> split = SplitFrame(frame);
  Result<Message> decoded =
      split.ok() ? DecodeBody(split.value().type, split.value().body)
                 : Result<Message>(split.error());
  if (!decoded.ok()) {
    obs_.decode_failures->Inc();
    return EncodeFrame(
        ErrorReply{static_cast<std::uint8_t>(decoded.error().code),
                   decoded.error().message});
  }
  return EncodeFrame(HandleMessage(decoded.value(), split.value().body));
}

Message SensingServer::HandleMessage(const Message& m,
                                     std::span<const std::uint8_t> body) {
  if (const auto* req = std::get_if<ParticipationRequest>(&m))
    return OnParticipation(*req);
  if (const auto* upload = std::get_if<SensedDataUpload>(&m))
    return OnUpload(*upload, body);
  if (const auto* note = std::get_if<LeaveNotification>(&m))
    return OnLeave(*note);
  if (std::get_if<PingReply>(&m) != nullptr) return Ack{};
  return ErrorReply{static_cast<std::uint8_t>(Errc::kInvalidArgument),
                    "server cannot handle this message type"};
}

Message SensingServer::OnParticipation(const ParticipationRequest& req) {
  Result<ApplicationRecord> app = apps_.Get(req.app);
  if (!app.ok()) {
    obs_.participations_rejected->Inc();
    Trace(obs::EventKind::kParticipationRejected, req.app.value());
    return ParticipationReply{TaskId{}, false, app.error().str()};
  }
  Result<TaskId> task = parts_.HandleRequest(req, app.value(), users_);
  if (!task.ok()) {
    obs_.participations_rejected->Inc();
    Trace(obs::EventKind::kParticipationRejected, req.app.value());
    SOR_LOG(kInfo, "server",
            "participation rejected: " << task.error().str());
    return ParticipationReply{TaskId{}, false, task.error().str()};
  }
  obs_.participations_accepted->Inc();
  Trace(obs::EventKind::kParticipationAccepted, task.value().value(),
        req.app.value());

  // Online scheduling: a join plans the new participant against the app's
  // residual coverage and pushes only the changed schedules. The accepted
  // task is explicitly marked unsent first: a crashed-and-restarted phone
  // that re-scans gets its EXISTING task back (same incarnation), and its
  // unchanged plan must be re-pushed because the phone lost it.
  scheduler_.MarkTaskUnsent(app.value(), task.value());
  Status sched = scheduler_.RescheduleApp(app.value(), parts_,
                                          config_.sample_window,
                                          config_.samples_per_window);
  if (!sched.ok()) {
    SOR_LOG(kWarn, "server",
            "reschedule after join failed: " << sched.str());
  }
  return ParticipationReply{task.value(), true, ""};
}

Message SensingServer::OnUpload(const SensedDataUpload& upload,
                                std::span<const std::uint8_t> body) {
  Result<ParticipationRecord> rec = parts_.Get(upload.task);
  if (!rec.ok())
    return ErrorReply{static_cast<std::uint8_t>(Errc::kNotFound),
                      "unknown task " + upload.task.str()};
  if (rec.value().user != upload.user)
    return ErrorReply{static_cast<std::uint8_t>(Errc::kPermissionDenied),
                      "upload user does not own task"};

  MaybeResyncAfterRestart(upload.task);
  health_.NoteContact(upload.task.value(), clock_.now());

  // At-least-once dedup: a retry after a lost Ack (or a duplicated frame)
  // carries the seq the server already stored. Acknowledge it again —
  // that is the answer the phone never received — but store nothing and
  // consume no budget. seq 0 marks a legacy sender with no dedup key.
  // Dedup runs BEFORE admission control: a retry of data already on disk
  // costs one hash probe, so re-acking it is free even under overload.
  if (upload.seq != 0) {
    const auto it = seen_upload_seqs_.find(upload.task.value());
    if (it != seen_upload_seqs_.end() && it->second.contains(upload.seq)) {
      obs_.uploads_deduped->Inc();
      Trace(obs::EventKind::kUploadDeduped, upload.task.value(), upload.seq,
            rec.value().app.value());
      return Ack{upload.task.value(), upload.seq};
    }
  }

  // Admission control (docs/robustness.md): only NEW bytes are billed
  // against the tick's ingest budget. Staleness comes from the upload's
  // own sense ticks — the newest reading dates the batch.
  SimTime sensed_at{0};
  for (const ReadingTuple& t : upload.batches)
    sensed_at = std::max(sensed_at, t.t);
  const AdmitDecision adm = health_.AdmitUpload(clock_.now(), sensed_at);
  if (!adm.admit) {
    Trace(adm.stale ? obs::EventKind::kUploadShed
                    : obs::EventKind::kUploadThrottled,
          upload.task.value(), upload.seq,
          static_cast<std::uint64_t>(static_cast<std::uint8_t>(adm.mode)));
    return ThrottleReply{upload.task.value(), upload.seq, adm.retry_after,
                         static_cast<std::uint8_t>(adm.mode)};
  }

  // "it will directly store the binary message body into the database,
  // which will be processed later by the Data Processor."
  db::Table* raw = db_.table(db::tables::kRawData);
  const std::uint64_t raw_id = raw_ids_.next().value();
  Result<db::RowId> stored = raw->Insert(
      {db::Value(raw_id), db::Value(upload.task.value()),
       db::Value(rec.value().app.value()), db::Value(Bytes(body.begin(), body.end())),
       db::Value(clock_.now().ms),
       db::Value(static_cast<std::int64_t>(upload.seq))});
  if (!stored.ok()) {
    // Storage fault: the row did NOT land. Answer with a throttle — the
    // data is intact on the phone and a later retry may find the store
    // healthy again — and let the watchdog decide whether the pile-up
    // warrants quarantine-and-reprime.
    health_.NoteStorageFailure(clock_.now());
    Trace(obs::EventKind::kStorageWriteFailed, upload.task.value(),
          upload.seq);
    SOR_LOG(kWarn, "server",
            "raw_data write failed (task " << upload.task.str() << " seq "
                << upload.seq << "): " << stored.error().str());
    if (health_.ShouldReprime()) Reprime();
    const SimDuration hint =
        health_.config().retry_after + health_.config().retry_after;
    return ThrottleReply{upload.task.value(), upload.seq, hint,
                         static_cast<std::uint8_t>(health_.mode())};
  }
  // Advance the app's stored watermark so the Data Processor's next pass
  // sees new work without probing the raw table.
  processor_.NoteUploadStored(rec.value().app,
                              static_cast<std::int64_t>(raw_id));
  obs_.uploads_stored->Inc();
  obs_.upload_batch_tuples->Observe(static_cast<double>(upload.batches.size()));
  // The db-commit milestone of the upload span: the raw_data row exists.
  Trace(obs::EventKind::kUploadStored, upload.task.value(), upload.seq,
        rec.value().app.value());
  if (upload.seq != 0)
    seen_upload_seqs_[upload.task.value()].insert(upload.seq);

  // Budget bookkeeping: one acquisition per distinct scheduled instant in
  // the batch ("Initially, it is set to the maximum number of times the
  // mobile user is willing to acquire data ... updated at runtime").
  std::set<std::int64_t> instants;
  for (const ReadingTuple& t : upload.batches) instants.insert(t.t.ms);
  (void)parts_.ConsumeBudget(upload.task,
                             static_cast<int>(instants.size()));
  return Ack{upload.task.value(), upload.seq};
}

Message SensingServer::OnLeave(const LeaveNotification& note) {
  Result<ParticipationRecord> rec = parts_.Get(note.task);
  if (!rec.ok())
    return ErrorReply{static_cast<std::uint8_t>(Errc::kNotFound),
                      "unknown task " + note.task.str()};
  needs_resync_.erase(note.task);  // leaving; no schedule to re-push
  health_.NoteContact(note.task.value(), clock_.now());
  (void)parts_.MarkFinished(note.task, note.time);
  Trace(obs::EventKind::kTaskFinished, note.task.value());

  // Re-plan for the remaining participants.
  Result<ApplicationRecord> app = apps_.Get(rec.value().app);
  if (app.ok()) {
    (void)scheduler_.RescheduleApp(app.value(), parts_, config_.sample_window,
                                   config_.samples_per_window);
  }
  return Ack{note.task.value()};
}

void SensingServer::MaybeResyncAfterRestart(TaskId task) {
  if (!needs_resync_.contains(task)) return;
  Result<ParticipationRecord> rec = parts_.Get(task);
  if (!rec.ok()) {
    needs_resync_.erase(task);
    return;
  }
  Result<ApplicationRecord> app = apps_.Get(rec.value().app);
  if (!app.ok()) {
    needs_resync_.erase(task);
    return;
  }

  // Re-push the task's latest STORED schedule verbatim rather than
  // re-planning: the phone already holds this exact schedule (the store
  // happens before distribution), so a restart never perturbs sensing —
  // the restored campaign stays byte-identical to an uninterrupted one
  // (docs/deployment.md). Re-planning here would commit a schedule the
  // original timeline never produced.
  const db::Table* schedules = db_.table(db::tables::kSchedules);
  std::optional<db::Row> latest;
  schedules->ForEachWhereEq(
      "task_id", db::Value(task.value()), [&latest](const db::Row& row) {
        // One row per task holds its current plan (kept assigned in place
        // by the scheduler); tolerate extras from older layouts by taking
        // the newest.
        latest = row;
        return true;
      });
  if (!latest.has_value()) {
    // Planned-but-never-scheduled task (or pre-schedule crash): nothing
    // stored to re-push; the next reschedule covers it.
    needs_resync_.erase(task);
    return;
  }

  ScheduleDistribution msg;
  msg.task = task;
  msg.app = app.value().id;
  msg.script = app.value().spec.script;
  msg.sample_window = config_.sample_window;
  msg.samples_per_window = config_.samples_per_window;
  msg.required_sensors = app.value().required_sensors;
  msg.flow_manifest = app.value().flow_manifest;
  ByteReader instants(latest->at(3).as_blob());
  const std::uint64_t count = instants.varint();
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < count && instants.ok(); ++i) {
    prev += instants.svarint();
    msg.instants.push_back(SimTime{prev});
  }
  // The blob's trailing section (per-pick grid index + commit seq) feeds
  // the planner rebuild, not the phone; skip past it before finish().
  for (std::uint64_t i = 0; i < 2 * count && instants.ok(); ++i)
    (void)instants.varint();
  if (!instants.finish().ok()) {
    SOR_LOG(kWarn, "server",
            "post-restart resync: stored schedule for task "
                << task.str() << " is corrupt; dropping resync");
    needs_resync_.erase(task);
    return;
  }

  Result<Message> reply = network_.Send(
      config_.endpoint_name, "phone:" + rec.value().token.value, msg);
  if (!reply.ok()) {
    // The phone did not get its schedule (e.g. the link dropped it); keep
    // the task marked so the next contact retries the push.
    SOR_LOG(kWarn, "server",
            "post-restart resync incomplete: " << reply.error().str());
    return;
  }
  (void)parts_.MarkRunning(task);
  obs_.resyncs_triggered->Inc();
  needs_resync_.erase(task);
}

void SensingServer::RebuildDerivedState() {
  // Id generators are process state, not database state: re-sync each one
  // past the ids already issued.
  users_.ResyncIds();
  apps_.ResyncIds();
  parts_.ResyncIds();
  scheduler_.ResyncIds();

  // Rebuild the upload dedup index, the raw-row id source, and the Data
  // Processor's per-app watermarks from raw_data. The id source needs only
  // the max primary key (O(1)); the dedup/watermark scan goes app by app
  // through the app_id index — every raw row belongs to a registered app,
  // so this covers the table without a full walk. The processed watermark
  // comes from the processor's own cursor, not from raw_data.
  db::Table* raw = db_.table(db::tables::kRawData);
  if (std::optional<db::Value> max_id = raw->MaxPrimaryKey())
    raw_ids_.advance_past(static_cast<std::uint64_t>(max_id->as_int()));
  seen_upload_seqs_.clear();
  for (const ApplicationRecord& app : apps_.All()) {
    std::int64_t stored_max = 0;
    raw->ForEachWhereEq(
        "app_id", db::Value(app.id.value()), [&](const db::Row& r) {
          stored_max = std::max(stored_max, r[0].as_int());
          const std::int64_t seq = r[5].as_int();
          if (seq != 0) {
            seen_upload_seqs_[static_cast<std::uint64_t>(r[1].as_int())]
                .insert(static_cast<std::uint64_t>(seq));
          }
          return true;
        });
    processor_.RestoreProgress(app, stored_max);
  }
}

void SensingServer::Reprime() {
  // The storage layer failed writes but every committed row is intact
  // (Insert is all-or-nothing). Quarantine the suspect PROCESS state — the
  // dedup index, id sources and watermarks that were built alongside the
  // failed writes — and rebuild all of it from the current tables, the
  // same walk a snapshot restore does, minus the restore.
  RebuildDerivedState();
  health_.NoteReprimed(clock_.now());
  Trace(obs::EventKind::kServerReprimed,
        db_.table(db::tables::kRawData)->size());
  SOR_LOG(kWarn, "server",
          "reprimed after storage write failures: "
              << db_.table(db::tables::kRawData)->size()
              << " raw rows re-indexed; refusing uploads until next tick");
}

Bytes SensingServer::SnapshotState() {
  processor_.PersistState();
  return db::SnapshotDatabase(db_);
}

Status SensingServer::RestoreFromSnapshot(
    std::span<const std::uint8_t> snapshot) {
  // RestoreDatabase is all-or-nothing and refuses a non-empty target, so
  // stage into a fresh database and commit by move. Managers hold a
  // reference to db_ (whose address is stable), so they see the restored
  // tables immediately.
  db::Database fresh;
  if (Status s = db::RestoreDatabase(snapshot, fresh); !s.ok()) return s;
  // Rows are read by position, so a table laid out otherwise (a snapshot
  // from before raw_data lost its `processed` column) is refused here.
  if (Status s = db::CheckSorSchema(fresh); !s.ok()) return s;
  db_ = std::move(fresh);
  // db_ was replaced wholesale; re-wire its full-scan counter.
  db_.AttachObservability(registry_);

  // The cached accumulators describe the replaced tables: drop them (they
  // reload from the restored processor_state rows) and the watermarks.
  processor_.ResetRuntimeState();
  RebuildDerivedState();

  // Rebuild the scheduler's per-app incremental planners from the durable
  // schedule rows (each row is a task's surviving commit log). Replayed in
  // seq order this is bitwise the planning state the snapshotted process
  // held, so post-restore reschedules continue the same greedy trajectory.
  scheduler_.RebuildFromDb(apps_.All(), parts_);

  // Phones still hold pre-crash schedules; re-push each app's schedule the
  // first time any of its participants makes contact.
  needs_resync_.clear();
  for (const ApplicationRecord& app : apps_.All()) {
    for (const ParticipationRecord& rec : parts_.ActiveForApp(app.id))
      needs_resync_.insert(rec.task);
  }

  obs_.recoveries->Inc();
  Trace(obs::EventKind::kServerRestored,
        db_.table(db::tables::kRawData)->size());
  SOR_LOG(kInfo, "server",
          "recovered from snapshot: " << db_.table(db::tables::kRawData)->size()
                                      << " raw rows, " << needs_resync_.size()
                                      << " tasks awaiting resync");
  return Status::Ok();
}

}  // namespace sor::server
