// HealthMonitor — the server's overload watchdog (docs/robustness.md).
//
// The SOR prototype ran one sensing server against a whole floor of phones
// (§V); a flash crowd of uploads, or a database hiccup, must degrade the
// service gracefully instead of toppling it. This module owns the
// degradation ladder:
//
//   normal ──load──▶ throttling ──load──▶ shedding
//     ▲                                      │
//     └──────── new tick / load drops ◀──────┘
//   (recovering: entered after storage failures force a reprime; refuses
//    uploads for the rest of the tick, then steps back to normal)
//
// Admission is budgeted per simulated tick: the first `ingest_budget`
// uploads of a tick are admitted; past `throttle_at`·budget the server
// starts shedding by priority — STALE uploads (sensed long ago; their loss
// costs the freshest the least) are refused first, fresh ones ride until
// the budget is spent, and leave notifications are never refused at all
// (they are tiny and the scheduler must learn who is gone). A refusal is a
// ThrottleReply carrying a deterministic retry_after hint, so the data
// stays queued on the phone and the fleet paces itself off the server.
//
// Everything here is a pure function of the admission sequence and the
// clock — no randomness — so overload behaviour is byte-identical across
// thread counts (admissions happen inside the epoch merge pass, in rank
// order, on the driver thread).
#pragma once

#include <cstdint>
#include <map>

#include "common/sim_time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sor::server {

struct OverloadConfig {
  // Uploads admitted per tick; 0 = unlimited (the pre-overload behaviour,
  // and the default, so existing runs keep their exact fingerprints).
  int ingest_budget = 0;
  // Fraction of the budget past which stale uploads are shed.
  double throttle_at = 0.75;
  // An upload whose newest reading is older than this is "stale": it has
  // already waited on a phone, so it can wait a little longer.
  SimDuration stale_after{10'000};
  // Base retry hint; shedding/recovering hand out twice this.
  SimDuration retry_after{2'000};
  // Storage write failures (within one reprime epoch) that trigger
  // quarantine-and-reprime.
  int reprime_after_failures = 3;
};

enum class ServerMode : std::uint8_t {
  kNormal = 0,
  kThrottling = 1,  // budget tightening: stale uploads shed
  kShedding = 2,    // budget spent: every upload refused
  kRecovering = 3,  // storage faulted; reprimed, refusing until next tick
};

[[nodiscard]] const char* to_string(ServerMode mode);

// The fate of one upload at the admission gate.
struct AdmitDecision {
  bool admit = true;
  bool stale = false;          // the upload was stale at decision time
  SimDuration retry_after{0};  // throttle hint (refusals only)
  ServerMode mode = ServerMode::kNormal;
};

class HealthMonitor {
 public:
  // Every count lands in `registry` ("server.uploads_throttled", ...); the
  // *_total() readers below are views over those counters.
  explicit HealthMonitor(obs::MetricsRegistry& registry) {
    AttachObservability(registry, nullptr, 0);
  }

  void set_config(OverloadConfig config) { config_ = config; }
  [[nodiscard]] const OverloadConfig& config() const { return config_; }

  // Rebind the counters to `registry` (counts already made stay in the old
  // one); mode changes trace on the server's stream. Call from serial
  // setup code.
  void AttachObservability(obs::MetricsRegistry& registry,
                           obs::Tracer* tracer, obs::StreamId stream);

  // Decide one upload's admission at `now`. Rolls the budget window when
  // the clock has advanced since the last decision (a window == one
  // simulated tick) and walks the ladder as the window fills.
  [[nodiscard]] AdmitDecision AdmitUpload(SimTime now, SimTime sensed_at);

  // Clock heartbeat from the campaign driver. Rolls the window exactly
  // like the first admission of a tick would, so the ladder steps back to
  // normal on a QUIET tick too — without this, a server that stopped
  // receiving uploads would be frozen in its last overloaded mode forever.
  // Call from the driver thread (between rounds) only.
  void ObserveTick(SimTime now) { RollWindow(now); }

  // Storage fault accounting. The server reports every failed raw-data
  // write; once `reprime_after_failures` pile up in one epoch the server
  // should quarantine + reprime (ShouldReprime goes true), call
  // NoteReprimed, and the monitor holds kRecovering until the next tick.
  void NoteStorageFailure(SimTime now);
  [[nodiscard]] bool ShouldReprime() const;
  void NoteReprimed(SimTime now);

  // Liveness: last contact per task, so operators can spot silent shards.
  void NoteContact(std::uint64_t task, SimTime now);
  [[nodiscard]] std::size_t LiveTasks(SimTime now, SimDuration within) const;

  [[nodiscard]] ServerMode mode() const { return mode_; }
  [[nodiscard]] std::uint64_t window_used() const { return used_; }
  [[nodiscard]] std::uint64_t throttled_total() const {
    return c_throttled_->value();
  }
  [[nodiscard]] std::uint64_t shed_stale_total() const {
    return c_shed_->value();
  }
  [[nodiscard]] std::uint64_t storage_failures_total() const {
    return c_storage_failures_->value();
  }
  [[nodiscard]] std::uint64_t reprimes_total() const {
    return c_reprimes_->value();
  }
  [[nodiscard]] std::uint64_t mode_changes_total() const {
    return c_mode_changes_->value();
  }

 private:
  void RollWindow(SimTime now);
  void SetMode(ServerMode mode, SimTime now);

  OverloadConfig config_;
  ServerMode mode_ = ServerMode::kNormal;
  SimTime window_start_{-1};     // sentinel: first decision rolls the window
  std::uint64_t used_ = 0;       // admissions this window
  int failures_this_epoch_ = 0;  // storage failures since the last reprime

  std::map<std::uint64_t, SimTime> last_contact_;

  obs::Tracer* tracer_ = nullptr;
  obs::StreamId stream_ = 0;
  obs::Counter* c_throttled_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_storage_failures_ = nullptr;
  obs::Counter* c_reprimes_ = nullptr;
  obs::Counter* c_mode_changes_ = nullptr;
  obs::Gauge* g_mode_ = nullptr;
  obs::Gauge* g_window_used_ = nullptr;
};

}  // namespace sor::server
