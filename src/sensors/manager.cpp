#include "sensors/manager.hpp"

#include <string>

namespace sor::sensors {

void SensorManager::RegisterProvider(std::unique_ptr<Provider> provider) {
  providers_[provider->kind()] = std::move(provider);
}

bool SensorManager::UnregisterProvider(SensorKind kind) {
  return providers_.erase(kind) != 0;
}

bool SensorManager::Supports(SensorKind kind) const {
  return providers_.contains(kind);
}

std::vector<SensorKind> SensorManager::SupportedKinds() const {
  std::vector<SensorKind> kinds;
  kinds.reserve(providers_.size());
  for (const auto& [kind, _] : providers_) kinds.push_back(kind);
  return kinds;
}

Provider* SensorManager::provider(SensorKind kind) {
  auto it = providers_.find(kind);
  return it == providers_.end() ? nullptr : it->second.get();
}

Result<std::vector<Reading>> SensorManager::Acquire(SensorKind kind,
                                                    const AcquireRequest& req,
                                                    SimDuration timeout) {
  auto it = providers_.find(kind);
  if (it == providers_.end()) {
    return Error{Errc::kUnavailable,
                 "no provider registered for sensor '" +
                     std::string(to_string(kind)) + "'"};
  }
  if (it->second->latency() > timeout) {
    ++timeouts_;
    return Error{Errc::kTimeout,
                 "acquisition from '" + std::string(to_string(kind)) +
                     "' cancelled: latency " +
                     std::to_string(it->second->latency().ms) +
                     "ms exceeds timeout " + std::to_string(timeout.ms) +
                     "ms"};
  }
  return it->second->Acquire(req);
}

void SensorManager::TrimToHorizon(SimTime horizon) {
  for (auto& [kind, provider] : providers_) provider->TrimToHorizon(horizon);
}

}  // namespace sor::sensors
