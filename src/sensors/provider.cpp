#include "sensors/provider.hpp"

#include <algorithm>
#include <iterator>

namespace sor::sensors {

BufferedProvider::BufferedProvider(SensorKind kind, SensorEnvironment& env,
                                   SimDuration freshness)
    : kind_(kind), env_(env), freshness_(freshness) {}

Result<Reading> BufferedProvider::ReadPhysical(SimTime t) {
  Reading r;
  r.kind = kind_;
  r.time = t;
  r.value = env_.Sample(kind_, t);
  return r;
}

Result<std::vector<Reading>> BufferedProvider::Acquire(
    const AcquireRequest& req) {
  if (req.samples < 1) {
    ++stats_.failures;
    return Error{Errc::kInvalidArgument, "samples must be >= 1"};
  }
  if (req.window.ms < 0) {
    ++stats_.failures;
    return Error{Errc::kInvalidArgument, "negative sampling window"};
  }

  std::vector<Reading> out;
  out.reserve(static_cast<std::size_t>(req.samples));
  // Readings taken by THIS acquisition are merged into the shared buffer
  // only after it completes: a request for k samples within Δt must
  // produce k independent readings ("multiple readings within [t, t+Δt] to
  // ensure high sensing quality", §IV-A), not one reading echoed k times.
  // They wait, in time order, past the `shared` readings lookups see.
  const std::size_t shared = buffer_.size();

  // Desired sample times: evenly spread over [t, t+Δt].
  for (int i = 0; i < req.samples; ++i) {
    const SimTime want =
        req.samples == 1
            ? req.t
            : req.t + SimDuration{req.window.ms * i / (req.samples - 1)};

    // Shared-buffer lookup: any reading within the freshness tolerance of
    // the desired instant can be re-used by this task (§II-A).
    const SimTime lo = want - freshness_;
    const SimTime hi = want + freshness_;
    const Reading* hit = nullptr;
    for (auto it = std::make_reverse_iterator(
             buffer_.begin() + static_cast<std::ptrdiff_t>(shared));
         it != buffer_.rend(); ++it) {
      if (it->time < lo) break;  // buffer ordered by time: nothing older fits
      if (it->time <= hi) {
        hit = &*it;
        break;
      }
    }
    if (hit != nullptr) {
      ++stats_.buffered_hits;
      out.push_back(*hit);
      continue;
    }

    Result<Reading> fresh = ReadPhysical(want);
    if (!fresh.ok()) {
      ++stats_.failures;
      buffer_.resize(shared);
      return fresh.error();
    }
    ++stats_.physical_acquisitions;
    buffer_.push_back(fresh.value());
    out.push_back(std::move(fresh).value());
  }

  // Merge this acquisition's readings into the shared buffer, keeping it
  // ordered (physical reads interleave in time when multiple tasks request
  // overlapping windows). The merge is stable, so a reading lands after
  // every buffered one with the same time.
  const auto middle = buffer_.begin() + static_cast<std::ptrdiff_t>(shared);
  if (middle != buffer_.begin() && middle != buffer_.end() &&
      middle->time < std::prev(middle)->time) {
    std::inplace_merge(
        buffer_.begin(), middle, buffer_.end(),
        [](const Reading& a, const Reading& b) { return a.time < b.time; });
  }
  return out;
}

void BufferedProvider::TrimBuffer(SimTime before) {
  while (!buffer_.empty() && buffer_.front().time < before)
    buffer_.pop_front();
}

}  // namespace sor::sensors
