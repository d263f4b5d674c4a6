#include "phone/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.hpp"

namespace sor::phone {

MobileFrontend::MobileFrontend(FrontendConfig config,
                               net::LoopbackNetwork& network,
                               sensors::SensorEnvironment& env,
                               const SimClock& clock)
    : config_(std::move(config)),
      endpoint_name_("phone:" + config_.token.value),
      network_(network),
      env_(env),
      clock_(clock),
      retry_rng_(config_.retry_seed) {
  if (config_.has_sensordrone) bluetooth_.Pair();
  // Register a Provider for every supported sensor (§II-A: "Currently, SOR
  // can support all sensors available on a Google Nexus4 smartphone and all
  // sensors available on a Sensordrone").
  for (int k = 0; k < kSensorKindCount; ++k) {
    const auto kind = static_cast<SensorKind>(k);
    sensors_.RegisterProvider(sensors::MakeProvider(kind, env_, bluetooth_));
  }
  network_.Register(EndpointName(), this);
}

MobileFrontend::~MobileFrontend() { network_.Unregister(EndpointName()); }

void MobileFrontend::AttachObservability(obs::MetricsRegistry* registry,
                                         obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) stream_ = tracer_->RegisterStream(EndpointName());
  if (registry == nullptr) {
    obs_ = PhoneCounters{};
    return;
  }
  const auto per_thread = obs::Sharding::kPerThread;
  obs_.uploads_sent = &registry->counter("phone.uploads_sent", per_thread);
  obs_.upload_failures =
      &registry->counter("phone.upload_failures", per_thread);
  obs_.uploads_retried =
      &registry->counter("phone.uploads_retried", per_thread);
  obs_.uploads_evicted =
      &registry->counter("phone.uploads_evicted", per_thread);
  obs_.uploads_throttled =
      &registry->counter("phone.uploads_throttled", per_thread);
  obs_.uploads_abandoned =
      &registry->counter("phone.uploads_abandoned", per_thread);
  obs_.leaves_retried = &registry->counter("phone.leaves_retried", per_thread);
  obs_.schedules_received =
      &registry->counter("phone.schedules_received", per_thread);
  obs_.schedules_refused =
      &registry->counter("phone.schedules_refused", per_thread);
  obs_.pings_answered = &registry->counter("phone.pings_answered", per_thread);
  obs_.decode_failures =
      &registry->counter("phone.decode_failures", per_thread);
  obs_.tuples_collected =
      &registry->counter("phone.tuples_collected", per_thread);
  obs_.upload_attempts = &registry->histogram(
      "phone.upload_attempts", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}, per_thread);
}

void MobileFrontend::Trace(obs::EventKind kind, std::uint64_t a,
                           std::uint64_t b, std::uint64_t c) {
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->Emit(stream_, clock_.now(), kind, a, b, c);
}

GeoPoint MobileFrontend::ReportedLocation() {
  GeoPoint p = env_.Position(clock_.now());
  if (prefs_.coarse_location()) {
    p.lat_deg = std::round(p.lat_deg * 100.0) / 100.0;
    p.lon_deg = std::round(p.lon_deg * 100.0) / 100.0;
  }
  return p;
}

Result<TaskId> MobileFrontend::ScanBarcode(const BarcodePayload& payload,
                                           int budget) {
  if (budget <= 0)
    return Error{Errc::kInvalidArgument, "sensing budget must be positive"};
  if (!prefs_.Allows(SensorKind::kGps))
    return Error{Errc::kPermissionDenied,
                 "participation requires location verification, but GPS is "
                 "disabled in local preferences"};
  server_ = payload.server;

  ParticipationRequest req;
  req.user = config_.user_id;
  req.token = config_.token;
  req.app = payload.app;
  req.location = ReportedLocation();
  req.budget = budget;
  req.scan_time = clock_.now();
  req.incarnation = incarnation_;

  Result<Message> reply = network_.Send(EndpointName(), server_, req);
  if (!reply.ok()) return reply.error();
  const auto* accepted = std::get_if<ParticipationReply>(&reply.value());
  if (accepted == nullptr)
    return Error{Errc::kDecodeError, "unexpected reply to participation"};
  if (!accepted->accepted)
    return Error{Errc::kNotInPlace, accepted->reason};
  last_join_ = JoinInfo{payload, budget};
  SOR_LOG(kInfo, "frontend",
          config_.user_name << " joined app " << payload.app.str()
                            << " as task " << accepted->task.str());
  return accepted->task;
}

void MobileFrontend::Crash() {
  // Volatile state dies with the process; the seq counter, incarnation and
  // the scanned join survive in "app-private storage" (see header).
  tasks_.clear();
  pending_uploads_.clear();
  pending_leaves_.clear();
  retries_spent_.clear();
  pace_until_ = SimTime{};
  Trace(obs::EventKind::kNodeCrashed, incarnation_);
  SOR_LOG(kWarn, "frontend",
          config_.user_name << " crashed (incarnation " << incarnation_
                            << "); queued work lost, seq counter kept");
}

Result<TaskId> MobileFrontend::Restart() {
  Trace(obs::EventKind::kNodeRestarted, incarnation_);
  if (!last_join_.has_value())
    return Error{Errc::kInvalidArgument,
                 "restart without a prior join: nothing to resume"};
  // Same incarnation ⇒ the server treats this as the idempotent rejoin of
  // the existing participation and re-pushes the schedule.
  return ScanBarcode(last_join_->payload, last_join_->budget);
}

void MobileFrontend::Uninstall() {
  tasks_.clear();
  pending_uploads_.clear();
  pending_leaves_.clear();
  retries_spent_.clear();
  pace_until_ = SimTime{};
  next_seq_ = 1;       // seq space restarts: a new install, a new task
  last_join_.reset();  // the new install has never scanned anything
  ++incarnation_;
  SOR_LOG(kWarn, "frontend",
          config_.user_name << " uninstalled; next install is incarnation "
                            << incarnation_);
}

Result<TaskId> MobileFrontend::ScanBarcodeText(const std::string& text,
                                               int budget) {
  Result<BarcodePayload> payload = DecodeBarcodeText(text);
  if (!payload.ok()) return payload.error();
  return ScanBarcode(payload.value(), budget);
}

Result<TaskId> MobileFrontend::ScanBarcodeMatrix(const BitMatrix& matrix,
                                                 int budget) {
  // Qualified call: the member function shadows the codec free function.
  Result<BarcodePayload> payload = sor::ScanBarcodeMatrix(matrix);
  if (!payload.ok()) return payload.error();
  return ScanBarcode(payload.value(), budget);
}

Status MobileFrontend::LeavePlace() {
  if (server_.empty())
    return Status(Errc::kInvalidArgument, "not participating anywhere");
  Status overall = Status::Ok();
  for (auto& [id, task] : tasks_) {
    // Notify the server for every task — including those that already
    // finished locally (all instants executed): the Participation Manager
    // flips its status to "finished" only on this notification.
    LeaveNotification note{id, config_.user_id, clock_.now()};
    Result<Message> reply = network_.Send(EndpointName(), server_, note);
    if (!reply.ok()) {
      // The server may never have heard this; queue it so Tick() keeps
      // retrying until it is acknowledged (OnLeave is idempotent).
      pending_leaves_.push_back(note);
      Trace(obs::EventKind::kLeaveQueued, id.value());
      overall = Status(reply.error());
    } else {
      Trace(obs::EventKind::kLeaveAcked, id.value());
    }
    task.Finish();
  }
  return overall;
}

SimDuration MobileFrontend::Backoff(int attempts) {
  std::int64_t delay = config_.retry_base.ms;
  for (int i = 1; i < attempts && delay < config_.retry_max.ms; ++i)
    delay *= 2;
  delay = std::min(delay, config_.retry_max.ms);
  // Jitter into [50%, 100%] so a fleet of phones that failed together does
  // not retry in lockstep; the stream is seeded, so runs stay replayable.
  const double jittered = static_cast<double>(delay) *
                          retry_rng_.uniform(0.5, 1.0);
  return SimDuration{std::max<std::int64_t>(1,
      static_cast<std::int64_t>(jittered))};
}

void MobileFrontend::SendUploadAsync(TaskId task, std::uint64_t seq,
                                     std::vector<ReadingTuple> batches,
                                     int attempts, bool fresh) {
  // The batch moves into the message, and the callback gets the message
  // back and keeps the batch: an upload is settled only when the Ack
  // echoes our seq; anything else (error, wrong type, stale ack) keeps the
  // data phone-side for a retry. A ThrottleReply echoing our seq is the
  // server refusing ADMISSION — the data never landed, but the link works;
  // honor the hint instead of treating it as a loss.
  network_.SendAsync(
      EndpointName(), server_,
      SensedDataUpload{task, config_.user_id, std::move(batches), seq},
      [this, task, seq, attempts, fresh](Result<Message> r, Message sent) {
        std::vector<ReadingTuple>& kept =
            std::get<SensedDataUpload>(sent).batches;
        if (r.ok()) {
          if (const auto* ack = std::get_if<Ack>(&r.value());
              ack != nullptr && ack->seq == seq) {
            ++stats_.uploads_sent;
            if (obs_.uploads_sent != nullptr) obs_.uploads_sent->Inc();
            if (obs_.upload_attempts != nullptr)
              obs_.upload_attempts->Observe(
                  static_cast<double>(attempts + 1));
            Trace(obs::EventKind::kUploadAcked, task.value(), seq);
            return;
          }
          if (const auto* throttle = std::get_if<ThrottleReply>(&r.value());
              throttle != nullptr && throttle->seq == seq) {
            // Re-queue at the hinted time with attempts UNCHANGED:
            // throttles count against neither the backoff curve nor the
            // retry budget (the server asked us to wait; we did nothing
            // wrong).
            NoteThrottle(task, seq, throttle->retry_after);
            EnqueueUploadAt(task, seq, std::move(kept), attempts,
                            clock_.now() + throttle->retry_after);
            return;
          }
        }
        ++stats_.upload_failures;
        if (obs_.upload_failures != nullptr) obs_.upload_failures->Inc();
        Trace(obs::EventKind::kUploadFailed, task.value(), seq,
              static_cast<std::uint64_t>(attempts + 1));
        // A fresh batch always earns its first retry; a failed re-send of a
        // QUEUED upload spends campaign budget first.
        if (fresh || SpendRetryBudget(task)) {
          EnqueueUpload(task, seq, std::move(kept), attempts + 1);
        } else {
          // Per-campaign retry budget spent: give the upload up for good
          // rather than let one dead campaign churn the queue forever.
          ++stats_.uploads_abandoned;
          if (obs_.uploads_abandoned != nullptr) obs_.uploads_abandoned->Inc();
          Trace(obs::EventKind::kUploadEvicted, task.value(), seq,
                static_cast<std::uint64_t>(attempts + 1));
          SOR_LOG(kWarn, "frontend",
                  "upload abandoned: phone=" << config_.token.value
                      << " task=" << task.str() << " seq=" << seq
                      << " attempts=" << attempts + 1
                      << " retry_budget=" << config_.retry_budget);
        }
      });
}

void MobileFrontend::NoteThrottle(TaskId task, std::uint64_t seq,
                                  SimDuration retry_after) {
  ++stats_.uploads_throttled;
  if (obs_.uploads_throttled != nullptr) obs_.uploads_throttled->Inc();
  Trace(obs::EventKind::kUploadThrottled, task.value(), seq,
        static_cast<std::uint64_t>(retry_after.ms));
  // Adaptive pacing: one throttle quiets the WHOLE queue until the hinted
  // time — hammering an overloaded server with the other queued uploads
  // would only earn more throttles.
  const SimTime resume = clock_.now() + retry_after;
  if (resume > pace_until_) pace_until_ = resume;
}

bool MobileFrontend::SpendRetryBudget(TaskId task) {
  if (config_.retry_budget <= 0) return true;  // unlimited
  int& spent = retries_spent_[task];
  if (spent >= config_.retry_budget) return false;
  ++spent;
  return true;
}

void MobileFrontend::EnqueueUpload(TaskId task, std::uint64_t seq,
                                   std::vector<ReadingTuple> batches,
                                   int attempts) {
  const SimTime next = clock_.now() + Backoff(attempts);
  EnqueueUploadAt(task, seq, std::move(batches), attempts, next);
}

void MobileFrontend::EnqueueUploadAt(TaskId task, std::uint64_t seq,
                                     std::vector<ReadingTuple> batches,
                                     int attempts, SimTime next_attempt) {
  if (pending_uploads_.size() >= config_.max_pending_uploads &&
      !pending_uploads_.empty()) {
    const PendingUpload& oldest = pending_uploads_.front();
    Trace(obs::EventKind::kUploadEvicted, oldest.task.value(), oldest.seq);
    // Eviction policy (docs/protocol.md): drop the OLDEST queued upload —
    // recent data beats stale data, and the bound keeps a long partition
    // from growing memory without limit.
    SOR_LOG(kWarn, "frontend",
            "upload evicted: phone=" << config_.token.value
                << " task=" << oldest.task.str() << " seq=" << oldest.seq
                << " attempts=" << oldest.attempts
                << " queue_bound=" << config_.max_pending_uploads);
    pending_uploads_.pop_front();  // evict the oldest; the bound holds
    ++stats_.uploads_dropped;
    if (obs_.uploads_evicted != nullptr) obs_.uploads_evicted->Inc();
  }
  PendingUpload p;
  p.task = task;
  p.seq = seq;
  p.batches = std::move(batches);
  p.attempts = attempts;
  p.next_attempt = next_attempt;
  pending_uploads_.push_back(std::move(p));
}

void MobileFrontend::Tick() {
  const SimTime now = clock_.now();

  // Queued leave notifications first: the server needs to know who is gone
  // before it replans anything. The queue is moved out so a failure's
  // re-queue (which may run inline outside an epoch) never mutates the
  // container being walked.
  if (!pending_leaves_.empty()) {
    std::vector<LeaveNotification> leaves;
    leaves.swap(pending_leaves_);
    for (LeaveNotification& note : leaves) {
      network_.SendAsync(
          EndpointName(), server_, std::move(note),
          [this](Result<Message> reply, Message sent) {
            auto& leave = std::get<LeaveNotification>(sent);
            if (reply.ok()) {
              ++stats_.leaves_retried;
              if (obs_.leaves_retried != nullptr) obs_.leaves_retried->Inc();
              Trace(obs::EventKind::kLeaveAcked, leave.task.value());
            } else {
              // Still unheard; keep retrying (OnLeave is idempotent).
              pending_leaves_.push_back(leave);
            }
          });
    }
  }

  // Throttle pacing: while the gate is closed the upload queue stays
  // quiet. Leaves (above) still flush — the server always admits them —
  // and sensing (below) still runs, queueing its data for later. In epoch
  // mode a throttle earned THIS tick closes the gate at the merge, so
  // pacing starts from the next tick.
  const bool paced = now < pace_until_;

  // Re-send queued uploads whose backoff has elapsed, oldest first. Each
  // keeps its original seq, so the server recognizes a retry of data it
  // already stored (the lost-Ack case) and just re-acknowledges.
  const std::size_t due = paced ? 0 : pending_uploads_.size();
  // An inline re-enqueue can evict the oldest entry when the queue is
  // full, so the queue may shrink mid-loop; never pop past what is there.
  for (std::size_t i = 0; i < due && !pending_uploads_.empty(); ++i) {
    if (now < pace_until_) break;  // an inline throttle closed the gate
    PendingUpload p = std::move(pending_uploads_.front());
    pending_uploads_.pop_front();
    if (p.next_attempt > now) {
      pending_uploads_.push_back(std::move(p));  // not yet; keep queued
      continue;
    }
    if (p.attempts > 0) {
      ++stats_.uploads_retried;
      if (obs_.uploads_retried != nullptr) obs_.uploads_retried->Inc();
    }
    SendUploadAsync(p.task, p.seq, std::move(p.batches), p.attempts,
                    /*fresh=*/false);
  }

  bool sensed = false;
  for (auto& [id, task] : tasks_) {
    std::vector<ReadingTuple> collected = task.RunDue(now, sensors_, prefs_);
    if (collected.empty()) continue;
    sensed = true;
    const std::uint64_t seq = next_seq_++;
    if (obs_.tuples_collected != nullptr)
      obs_.tuples_collected->Inc(collected.size());
    Trace(obs::EventKind::kSenseBatch, id.value(), seq, collected.size());
    if (now < pace_until_) {
      // Gate closed: don't even try — queue the fresh batch to transmit
      // once the gate reopens.
      EnqueueUploadAt(id, seq, std::move(collected), 0, pace_until_);
      continue;
    }
    SendUploadAsync(id, seq, std::move(collected), 0, /*fresh=*/true);
  }
  if (sensed) sensors_.TrimToHorizon(SensingHorizon(now));
  last_tick_ = now;
}

SimTime MobileFrontend::SensingHorizon(SimTime now) const {
  // A schedule that arrives after this tick keeps only instants after
  // `now` (see HandleMessage). One that arrived during it, for a task the
  // loop above had already passed, may still hold instants in (last tick,
  // now]: those run next tick and ask for times before `now`.
  SimTime horizon = now;
  for (const auto& [id, task] : tasks_) {
    if (std::optional<SimTime> next = task.next_instant())
      horizon = std::min(horizon, *next);
  }
  return horizon;
}

const TaskInstance* MobileFrontend::task(TaskId id) const {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

Bytes MobileFrontend::HandleFrame(std::span<const std::uint8_t> frame) {
  Result<Message> decoded = DecodeFrame(frame);
  if (!decoded.ok()) {
    ++stats_.decode_failures;
    if (obs_.decode_failures != nullptr) obs_.decode_failures->Inc();
    return EncodeFrame(ErrorReply{
        static_cast<std::uint8_t>(decoded.error().code),
        decoded.error().message});
  }
  return EncodeFrame(HandleMessage(decoded.value()));
}

Message MobileFrontend::HandleMessage(const Message& m) {
  if (const auto* sched = std::get_if<ScheduleDistribution>(&m)) {
    // Capability gate: if the script needs a sensor this phone does not
    // have (e.g. the Sensordrone was never paired), refuse the task up
    // front so the scheduler can mark it errored and replan, instead of
    // collecting empty acquisitions for the whole campaign.
    for (SensorKind kind : sched->required_sensors) {
      if (!sensors_.Supports(kind)) {
        ++stats_.schedules_refused;
        if (obs_.schedules_refused != nullptr) obs_.schedules_refused->Inc();
        Trace(obs::EventKind::kTaskRefused, sched->task.value(),
              static_cast<std::uint64_t>(kind));
        SOR_LOG(kWarn, "frontend",
                "refusing task " << sched->task.str() << ": no provider for '"
                                 << to_string(kind) << "'");
        // kUnsupported (not kUnavailable): the transport uses kUnavailable
        // for transient partitions, while a missing sensor is permanent —
        // the scheduler marks the participation as errored on this code.
        return ErrorReply{
            static_cast<std::uint8_t>(Errc::kUnsupported),
            "phone lacks required sensor '" +
                std::string(to_string(kind)) + "'"};
      }
    }
    // New or refreshed schedule. On refresh, drop instants that are already
    // in the past so re-planning never re-executes old work. The past ends
    // at the last tick, or later for a task that already ran this tick: in
    // immediate mode a refresh can answer this tick's own upload (the
    // post-restart resync push), after the task executed its instants up
    // to now.
    SimTime past = last_tick_;
    if (auto old = tasks_.find(sched->task); old != tasks_.end())
      past = std::max(past, old->second.ran_through());
    std::vector<SimTime> instants;
    for (SimTime t : sched->instants) {
      if (t > past) instants.push_back(t);
    }
    ++stats_.schedules_received;
    if (obs_.schedules_received != nullptr) obs_.schedules_received->Inc();
    Trace(obs::EventKind::kTaskScheduled, sched->task.value(),
          instants.size());
    tasks_.insert_or_assign(
        sched->task,
        TaskInstance(sched->task, sched->app, sched->script,
                     std::move(instants), sched->sample_window,
                     sched->samples_per_window));
    SOR_LOG(kDebug, "frontend",
            "schedule for task " << sched->task.str() << ": "
                                 << sched->instants.size() << " instants");
    return Ack{sched->task.value()};
  }
  if (std::get_if<Ping>(&m) != nullptr) {
    ++stats_.pings_answered;
    if (obs_.pings_answered != nullptr) obs_.pings_answered->Inc();
    return PingReply{config_.phone_id, ReportedLocation(), clock_.now()};
  }
  return ErrorReply{static_cast<std::uint8_t>(Errc::kInvalidArgument),
                    "phone cannot handle this message type"};
}

}  // namespace sor::phone
