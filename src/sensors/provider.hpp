// Provider: the software component that actually operates one sensor.
//
// §II-A: "If we want to make SOR support a new sensor (embedded or
// external), we only need to create a Provider for that sensor. ... each
// Provider maintains a data buffer which buffers data collected from its
// sensor and can even share them with multiple different tasks. In this
// way, energy consumed for sensing can be reduced."
//
// BufferedProvider implements exactly that: an Acquire() first tries to
// satisfy the request from buffered readings that are still fresh; only on
// a miss does it touch the physical sensor (the SensorEnvironment). The
// physical/buffered counters let tests and the energy ablation bench verify
// the saving.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/result.hpp"
#include "sensors/reading.hpp"

namespace sor::sensors {

struct AcquireRequest {
  SimTime t;            // start of the sampling window
  SimDuration window;   // Δt (§IV-A): readings are taken within [t, t+Δt]
  int samples = 1;      // how many readings inside the window
};

struct ProviderStats {
  std::uint64_t physical_acquisitions = 0;  // sensor actually powered
  std::uint64_t buffered_hits = 0;          // served from the shared buffer
  std::uint64_t failures = 0;
};

class Provider {
 public:
  virtual ~Provider() = default;

  [[nodiscard]] virtual SensorKind kind() const = 0;

  // Acquire `samples` readings within [t, t+Δt]. Never blocks: in this
  // simulation the provider completes synchronously but reports a latency,
  // which the SensorManager compares against the task's timeout (§II-A:
  // "the manager can cancel data acquisition if timeout").
  [[nodiscard]] virtual Result<std::vector<Reading>> Acquire(
      const AcquireRequest& req) = 0;

  // Simulated completion latency of one acquisition.
  [[nodiscard]] virtual SimDuration latency() const {
    return SimDuration{50};  // 50 ms default
  }

  [[nodiscard]] virtual const ProviderStats& stats() const = 0;

  // Promise that no later Acquire asks for a sample time before `horizon`;
  // a buffering provider drops what no such request could reuse.
  virtual void TrimToHorizon(SimTime horizon) { (void)horizon; }
};

// Common buffering machinery for all concrete providers.
class BufferedProvider : public Provider {
 public:
  // `freshness`: a buffered reading can be re-used for a request at time t
  // if it was taken within [t - freshness, t + window + freshness].
  BufferedProvider(SensorKind kind, SensorEnvironment& env,
                   SimDuration freshness);

  [[nodiscard]] SensorKind kind() const override { return kind_; }
  [[nodiscard]] Result<std::vector<Reading>> Acquire(
      const AcquireRequest& req) override;
  [[nodiscard]] const ProviderStats& stats() const override { return stats_; }

  // Drop buffered readings older than `before`.
  void TrimBuffer(SimTime before);
  // A request for sample time w reuses readings no older than
  // w - freshness, so readings before horizon - freshness are dead.
  void TrimToHorizon(SimTime horizon) override {
    TrimBuffer(horizon - freshness_);
  }

  [[nodiscard]] std::size_t buffer_size() const { return buffer_.size(); }

 protected:
  // Produce one physical reading at time t. Default: env.Sample().
  [[nodiscard]] virtual Result<Reading> ReadPhysical(SimTime t);

  SensorEnvironment& env() { return env_; }

 private:
  SensorKind kind_;
  SensorEnvironment& env_;
  SimDuration freshness_;
  std::deque<Reading> buffer_;  // ordered by time
  ProviderStats stats_;
};

}  // namespace sor::sensors
