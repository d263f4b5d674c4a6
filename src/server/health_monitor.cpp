#include "server/health_monitor.hpp"

#include <cmath>

namespace sor::server {

const char* to_string(ServerMode mode) {
  switch (mode) {
    case ServerMode::kNormal: return "normal";
    case ServerMode::kThrottling: return "throttling";
    case ServerMode::kShedding: return "shedding";
    case ServerMode::kRecovering: return "recovering";
  }
  return "?";
}

void HealthMonitor::AttachObservability(obs::MetricsRegistry& registry,
                                        obs::Tracer* tracer,
                                        obs::StreamId stream) {
  tracer_ = tracer;
  stream_ = stream;
  c_throttled_ = &registry.counter("server.uploads_throttled");
  c_shed_ = &registry.counter("server.uploads_shed");
  c_storage_failures_ = &registry.counter("server.storage_write_failures");
  c_reprimes_ = &registry.counter("server.reprimes");
  c_mode_changes_ = &registry.counter("server.mode_changes");
  g_mode_ = &registry.gauge("server.mode");
  g_window_used_ = &registry.gauge("server.ingest_window_used");
}

void HealthMonitor::SetMode(ServerMode mode, SimTime now) {
  if (mode == mode_) return;
  mode_ = mode;
  c_mode_changes_->Inc();
  g_mode_->Set(static_cast<double>(static_cast<std::uint8_t>(mode)));
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Emit(stream_, now, obs::EventKind::kServerModeChanged,
                  static_cast<std::uint64_t>(static_cast<std::uint8_t>(mode)),
                  used_, 0);
  }
}

void HealthMonitor::RollWindow(SimTime now) {
  if (now.ms == window_start_.ms) return;
  window_start_ = now;
  used_ = 0;
  g_window_used_->Set(0.0);
  // A new tick is a clean slate: load-driven modes step back to normal
  // (the ladder climbs again only if this tick actually fills up), and a
  // reprimed server has had its quiet remainder-of-tick — resume serving.
  SetMode(ServerMode::kNormal, now);
}

AdmitDecision HealthMonitor::AdmitUpload(SimTime now, SimTime sensed_at) {
  RollWindow(now);
  AdmitDecision d;
  d.stale = sensed_at + config_.stale_after < now;

  if (mode_ == ServerMode::kRecovering) {
    // Post-reprime quiet period: refuse everything until the next tick.
    d.admit = false;
    d.retry_after = config_.retry_after + config_.retry_after;
    d.mode = mode_;
    c_throttled_->Inc();
    return d;
  }

  const int budget = config_.ingest_budget;
  if (budget > 0) {
    if (used_ >= static_cast<std::uint64_t>(budget)) {
      SetMode(ServerMode::kShedding, now);
      d.admit = false;
      d.retry_after = config_.retry_after + config_.retry_after;
    } else {
      const auto threshold = static_cast<std::uint64_t>(
          std::ceil(config_.throttle_at * budget));
      if (used_ >= threshold) {
        SetMode(ServerMode::kThrottling, now);
        if (d.stale) {
          // Shed by priority: stale data has already waited on a phone —
          // refusing it preserves the remaining budget for fresh uploads.
          d.admit = false;
          d.retry_after = config_.retry_after;
          c_shed_->Inc();
        }
      }
    }
  }
  d.mode = mode_;
  if (d.admit) {
    ++used_;
    g_window_used_->Set(static_cast<double>(used_));
  } else {
    c_throttled_->Inc();
  }
  return d;
}

void HealthMonitor::NoteStorageFailure(SimTime now) {
  RollWindow(now);
  ++failures_this_epoch_;
  c_storage_failures_->Inc();
}

bool HealthMonitor::ShouldReprime() const {
  return config_.reprime_after_failures > 0 &&
         failures_this_epoch_ >= config_.reprime_after_failures;
}

void HealthMonitor::NoteReprimed(SimTime now) {
  failures_this_epoch_ = 0;
  c_reprimes_->Inc();
  SetMode(ServerMode::kRecovering, now);
}

void HealthMonitor::NoteContact(std::uint64_t task, SimTime now) {
  last_contact_[task] = now;
}

std::size_t HealthMonitor::LiveTasks(SimTime now, SimDuration within) const {
  std::size_t live = 0;
  for (const auto& [task, seen] : last_contact_) {
    if (seen + within >= now) ++live;
  }
  return live;
}

}  // namespace sor::server
