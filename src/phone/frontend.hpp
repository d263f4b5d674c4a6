// MobileFrontend — the phone-side application (§II-A, Fig. 3).
//
// Wires together the Message Handler (a net::Endpoint speaking the binary
// SOR protocol), the Local Preference Manager, the Sensing Task Manager
// (the task map + RunDue pump), the Script Interpreter (the IR executor
// inside TaskInstance, running the module every task of the same script
// shares, compiled once per process), and the Sensor Manager with one
// Provider per supported sensor (all Nexus4 sensors + the Sensordrone
// suite over the Bluetooth link).
//
// The user-facing trigger is ScanBarcode*: decode the 2D barcode, send a
// ParticipationRequest with the phone's (preference-filtered) location and
// sensing budget, and wait for the server's schedule.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "codec/barcode.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phone/task_instance.hpp"
#include "sensors/manager.hpp"
#include "sensors/providers.hpp"

namespace sor::phone {

struct FrontendConfig {
  PhoneId phone_id;
  UserId user_id;
  std::string user_name;
  Token token;
  bool has_sensordrone = true;  // pair the external sensor at startup

  // --- retry policy (at-least-once uploads over a lossy link) -------------
  std::uint64_t retry_seed = 0x9e77;     // seed for the backoff jitter stream
  SimDuration retry_base{1'000};         // first-retry delay ceiling
  SimDuration retry_max{60'000};         // exponential backoff cap
  std::size_t max_pending_uploads = 64;  // store-and-forward queue bound

  // Per-campaign retry budget (docs/robustness.md): every failed re-send of
  // a queued upload spends one unit of its task's budget; once spent,
  // further failing uploads for that task are abandoned instead of
  // re-queued, so one dead campaign cannot monopolize the queue forever.
  // 0 = unlimited (the pre-budget behaviour).
  int retry_budget = 0;
};

struct FrontendStats {
  std::uint64_t uploads_sent = 0;
  std::uint64_t upload_failures = 0;
  std::uint64_t uploads_retried = 0;   // re-sends of a queued upload
  std::uint64_t uploads_dropped = 0;   // oldest entries evicted, queue full
  std::uint64_t uploads_throttled = 0; // server answered with a ThrottleReply
  std::uint64_t uploads_abandoned = 0; // retry budget spent, upload given up
  std::uint64_t leaves_retried = 0;    // queued LeaveNotifications re-sent
  std::uint64_t schedules_received = 0;
  std::uint64_t schedules_refused = 0;  // required sensor not on this phone
  std::uint64_t pings_answered = 0;
  std::uint64_t decode_failures = 0;
};

class MobileFrontend final : public net::Endpoint {
 public:
  // The frontend registers itself on `network` under EndpointName().
  MobileFrontend(FrontendConfig config, net::LoopbackNetwork& network,
                 sensors::SensorEnvironment& env, const SimClock& clock);
  ~MobileFrontend() override;

  MobileFrontend(const MobileFrontend&) = delete;
  MobileFrontend& operator=(const MobileFrontend&) = delete;

  [[nodiscard]] const std::string& EndpointName() const {
    return endpoint_name_;
  }

  [[nodiscard]] LocalPreferenceManager& preferences() { return prefs_; }
  [[nodiscard]] sensors::SensorManager& sensor_manager() { return sensors_; }
  [[nodiscard]] sensors::BluetoothLink& bluetooth() { return bluetooth_; }
  [[nodiscard]] const FrontendStats& stats() const { return stats_; }
  [[nodiscard]] const FrontendConfig& config() const { return config_; }

  // Hook this phone into the shared telemetry. Fleet-wide "phone.*"
  // counters (per-thread sharded — every shard's phones bump the same
  // names) complement the per-phone FrontendStats; the tracer gets one
  // stream named EndpointName(). Call from serial setup code only: stream
  // ids must be assigned in a thread-count-invariant order.
  void AttachObservability(obs::MetricsRegistry* registry,
                           obs::Tracer* tracer);

  // --- user actions ------------------------------------------------------
  // Scan the barcode deployed at the target place. On success the server
  // has accepted the participation; the sensing schedule arrives as a
  // separate ScheduleDistribution message.
  [[nodiscard]] Result<TaskId> ScanBarcode(const BarcodePayload& payload,
                                           int budget);
  [[nodiscard]] Result<TaskId> ScanBarcodeText(const std::string& text,
                                               int budget);
  [[nodiscard]] Result<TaskId> ScanBarcodeMatrix(const BitMatrix& matrix,
                                                 int budget);

  // Tell the server the user left the place; finishes all tasks. A
  // notification the server never acknowledged is queued and retried from
  // Tick() until it lands (the server must learn the user is gone, or the
  // scheduler keeps planning for a phone that will never upload again).
  [[nodiscard]] Status LeavePlace();

  // --- node lifecycle (docs/robustness.md) --------------------------------
  // Crash: the process dies mid-campaign. Volatile state — the task map,
  // the store-and-forward queue, queued leaves, pacing — is lost; the
  // persisted bits (upload seq counter, install incarnation, the scanned
  // join) survive, exactly like app-private storage on a real phone. The
  // seq counter surviving is what keeps the server's dedup sound across a
  // crash: a restarted phone never reuses a seq the server may have seen.
  void Crash();
  // Restart after a crash: re-present the SAME incarnation to the server,
  // which recognizes the join as idempotent, returns the same task, and
  // re-pushes the schedule. Fails if this phone never scanned a barcode.
  [[nodiscard]] Result<TaskId> Restart();
  // Uninstall: everything goes, including the seq counter; the next install
  // generation is recorded by bumping the incarnation, so a later
  // ScanBarcode presents a HIGHER incarnation and the server retires the
  // old participation instead of resuming it (seq space restarts at 1).
  void Uninstall();
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  // Earliest time the upload queue may transmit again (throttle pacing).
  [[nodiscard]] SimTime paced_until() const { return pace_until_; }

  // --- time advance ------------------------------------------------------
  // Flush queued leave notifications, re-send queued uploads whose backoff
  // has elapsed, then execute every sensing activity due at the current
  // clock time and upload the collected data. A failed upload keeps its
  // seq and re-enters the queue with exponential backoff + seeded jitter.
  //
  // All sends go through LoopbackNetwork::SendAsync. Standalone (no epoch)
  // that is a synchronous round trip with the outcome applied inline —
  // the classic request/response Tick. Inside a campaign epoch the sends
  // are collected wait-free during phase A and their outcomes (ack, retry
  // backoff, throttle pacing) land in this phone's callbacks during the
  // merge — so pacing and re-queues from this tick's replies take effect
  // from the NEXT tick on. Both serial and parallel campaign runs use the
  // epoch path, so the schedule of outcomes is thread-count-invariant.
  void Tick();

  // --- task inspection ---------------------------------------------------
  [[nodiscard]] const TaskInstance* task(TaskId id) const;
  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  [[nodiscard]] std::size_t pending_uploads() const {
    return pending_uploads_.size();
  }
  [[nodiscard]] std::size_t pending_leaves() const {
    return pending_leaves_.size();
  }

  // --- net::Endpoint -----------------------------------------------------
  [[nodiscard]] Bytes HandleFrame(std::span<const std::uint8_t> frame) override;

 private:
  // One queued upload attempt. The seq is assigned when the upload is first
  // built and never changes across retries — it IS the server's dedup key,
  // so a retry after a lost Ack is recognized as the same upload.
  struct PendingUpload {
    TaskId task;
    std::uint64_t seq = 0;
    std::vector<ReadingTuple> batches;
    int attempts = 0;       // sends tried so far
    SimTime next_attempt;   // earliest time to try again
  };

  [[nodiscard]] Message HandleMessage(const Message& m);
  [[nodiscard]] GeoPoint ReportedLocation();
  // The earliest sample time any acquisition after the tick at `now` can
  // request; Tick trims the sensor buffers to it.
  [[nodiscard]] SimTime SensingHorizon(SimTime now) const;
  // Send one upload via SendAsync and settle it in the completion callback:
  // an Ack echoing `seq` lands it; a ThrottleReply echoing `seq` paces the
  // queue and re-queues at the hinted time (admission refused, data intact,
  // no backoff/budget charge); anything else re-queues with exponential
  // backoff — unless the entry was a queued retry (`fresh` == false) whose
  // campaign retry budget is spent, in which case it is abandoned.
  void SendUploadAsync(TaskId task, std::uint64_t seq,
                       std::vector<ReadingTuple> batches, int attempts,
                       bool fresh);
  // min(retry_max, retry_base·2^(attempts-1)), jittered into [50%, 100%].
  [[nodiscard]] SimDuration Backoff(int attempts);
  void EnqueueUpload(TaskId task, std::uint64_t seq,
                     std::vector<ReadingTuple> batches, int attempts);
  // Same, but with an explicit wake-up time (throttle hints bypass backoff).
  void EnqueueUploadAt(TaskId task, std::uint64_t seq,
                       std::vector<ReadingTuple> batches, int attempts,
                       SimTime next_attempt);
  // Apply a ThrottleReply: pace the whole queue and record the hint.
  void NoteThrottle(TaskId task, std::uint64_t seq, SimDuration retry_after);
  // True when `task` has retry budget left; a failed re-send spends one
  // unit. Exhausted budget abandons the upload (accounted + logged).
  [[nodiscard]] bool SpendRetryBudget(TaskId task);
  // Emit on this phone's trace stream (no-op when tracing is off).
  void Trace(obs::EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
             std::uint64_t c = 0);

  FrontendConfig config_;
  std::string endpoint_name_;  // "phone:" + token, built once
  net::LoopbackNetwork& network_;
  sensors::SensorEnvironment& env_;
  const SimClock& clock_;
  std::string server_;  // learned from the scanned barcode

  LocalPreferenceManager prefs_;
  sensors::BluetoothLink bluetooth_;
  sensors::SensorManager sensors_;

  std::map<TaskId, TaskInstance> tasks_;
  // Bounded store-and-forward queue (FIFO by age): when it is full the
  // oldest entry is evicted — recent data beats stale data, and the bound
  // keeps a long partition from growing memory without limit.
  std::deque<PendingUpload> pending_uploads_;
  // Leave notifications the server has not yet acknowledged.
  std::vector<LeaveNotification> pending_leaves_;
  std::uint64_t next_seq_ = 1;  // upload sequence numbers, per phone
  Rng retry_rng_{0};            // re-seeded from config in the constructor
  SimTime last_tick_;
  FrontendStats stats_;

  // --- robustness state (docs/robustness.md) ------------------------------
  // Install generation. Survives Crash() (it is "persisted"); Uninstall()
  // bumps it so the server can tell a reinstall from a crash-rejoin.
  std::uint32_t incarnation_ = 1;
  // Throttle pacing gate: while now < pace_until_ the upload queue stays
  // quiet (leaves still flush — they are always admitted server-side).
  SimTime pace_until_;
  // Per-campaign retry spend, against config_.retry_budget. Volatile.
  std::map<TaskId, int> retries_spent_;
  // The last successful join, kept so Restart() can idempotently rejoin
  // with the same incarnation. Cleared by Uninstall().
  struct JoinInfo {
    BarcodePayload payload;
    int budget = 0;
  };
  std::optional<JoinInfo> last_join_;

  // Shared-telemetry handles (null until AttachObservability).
  obs::Tracer* tracer_ = nullptr;
  obs::StreamId stream_ = 0;
  struct PhoneCounters {
    obs::Counter* uploads_sent = nullptr;
    obs::Counter* upload_failures = nullptr;
    obs::Counter* uploads_retried = nullptr;
    obs::Counter* uploads_evicted = nullptr;
    obs::Counter* uploads_throttled = nullptr;
    obs::Counter* uploads_abandoned = nullptr;
    obs::Counter* leaves_retried = nullptr;
    obs::Counter* schedules_received = nullptr;
    obs::Counter* schedules_refused = nullptr;
    obs::Counter* pings_answered = nullptr;
    obs::Counter* decode_failures = nullptr;
    obs::Counter* tuples_collected = nullptr;
    obs::Histogram* upload_attempts = nullptr;  // attempts until the Ack
  };
  PhoneCounters obs_;
};

}  // namespace sor::phone
