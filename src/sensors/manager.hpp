// SensorManager + Provider Register (§II-A, Fig. 3).
//
// "When a new sensor is integrated into SOR, the corresponding Provider
// needs to be registered with the Sensor Manager via the Provider Register,
// which keeps a list of currently supported sensors and the corresponding
// data acquisition functions we defined. ... When a task instance requests
// data by calling such a data acquisition function, the Sensor Manager
// directs the call to the corresponding Provider ... the manager can cancel
// data acquisition if timeout."
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "sensors/provider.hpp"

namespace sor::sensors {

class SensorManager {
 public:
  // Register a provider; replaces any previous provider of the same kind.
  void RegisterProvider(std::unique_ptr<Provider> provider);
  // Remove a provider (e.g. an external sensor that was unpaired). Returns
  // false when no provider of that kind was registered.
  bool UnregisterProvider(SensorKind kind);

  [[nodiscard]] bool Supports(SensorKind kind) const;
  [[nodiscard]] std::vector<SensorKind> SupportedKinds() const;
  [[nodiscard]] Provider* provider(SensorKind kind);

  // Route an acquisition to the right provider, enforcing the timeout: a
  // provider whose completion latency exceeds `timeout` is cancelled and
  // the acquisition fails with kTimeout.
  [[nodiscard]] Result<std::vector<Reading>> Acquire(
      SensorKind kind, const AcquireRequest& req,
      SimDuration timeout = SimDuration{5'000});

  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

  // No later acquisition asks for a sample time before `horizon`: let every
  // provider drop the buffered readings that only such a request could use.
  void TrimToHorizon(SimTime horizon);

 private:
  std::unordered_map<SensorKind, std::unique_ptr<Provider>> providers_;
  std::uint64_t timeouts_ = 0;
};

}  // namespace sor::sensors
