// A reference loop that measures how fast the host runs right now.
//
// On a shared host the same single-threaded SOR work runs in slow and fast
// stretches, each a minute or more long, up to 1.7x apart (README.md, "Host
// and steadiness"). HostProbe times three fixed kernels that use no SOR code:
// random read-modify-writes over 8 MB; standard containers (a sort, a hash
// map and short strings); and streaming passes over 32 MB. Each kernel's time
// is divided by its time on the reference host; the geometric mean of those
// ratios is the host factor, 1.0 on the reference host and above 1.0 when the
// host is slower. The benchmark runs the probe before the first pass and
// after every pass, and divides each pass's times by the factor measured
// nearest to them (Normalize in campaign.hpp).
//
// The fixed buffers are allocated and touched once, in the constructor, and
// stay resident until the probe is destroyed, so they add exactly
// resident_bytes() to the process's peak RSS. The containers kernel
// allocates a few MB and frees them before it returns.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace layerbench {

class HostProbe {
 public:
  // Kernel times in ms on the reference host (a shared 4-vCPU Xeon VM,
  // RelWithDebInfo build), in the order Measure() runs them.
  static constexpr std::array<double, 3> kReferenceMs = {18.0, 70.0, 18.5};

  HostProbe()
      : updates_(kUpdateWords), sort_in_(kSortWords), stream_(kStreamWords) {
    std::uint64_t x = kSeed;
    for (std::uint64_t& v : updates_) v = Next(x);
    for (std::uint64_t& v : sort_in_) v = Next(x);
    for (std::uint64_t& v : stream_) v = Next(x);
    sort_ = sort_in_;
  }

  [[nodiscard]] std::size_t resident_bytes() const {
    return (updates_.size() + sort_in_.size() + sort_.size() +
            stream_.size()) *
           sizeof(std::uint64_t);
  }

  // Runs every kernel three times, in turn, and takes each kernel's median
  // time, so one interrupted run does not set the factor. Returns the host
  // factor.
  double Measure() {
    std::array<std::array<double, 3>, 3> ms{};  // [kernel][repetition]
    for (std::size_t rep = 0; rep < 3; ++rep) {
      ms[0][rep] = Time([this] { sink_ = RandomUpdates(); });
      ms[1][rep] = Time([this] { sink_ = Containers(); });
      ms[2][rep] = Time([this] { sink_ = Stream(); });
    }
    double log_sum = 0.0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      std::sort(ms[i].begin(), ms[i].end());
      log_sum += std::log(ms[i][1] / kReferenceMs[i]);
    }
    return std::exp(log_sum / static_cast<double>(ms.size()));
  }

 private:
  static constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
  static constexpr std::size_t kUpdateWords = std::size_t{1} << 20;  // 8 MB
  static constexpr std::size_t kSortWords = std::size_t{1} << 18;    // 2 MB
  static constexpr std::size_t kStreamWords = std::size_t{1} << 22;  // 32 MB

  static std::uint64_t Next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  template <typename F>
  static double Time(F f) {
    const auto start = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  std::uint64_t RandomUpdates() {
    std::uint64_t x = kSeed;
    for (int i = 0; i < 3'600'000; ++i) {
      const std::uint64_t r = Next(x);
      updates_[r & (kUpdateWords - 1)] += r;
    }
    return updates_[0];
  }

  std::uint64_t Containers() {
    std::copy(sort_in_.begin(), sort_in_.end(), sort_.begin());
    std::sort(sort_.begin(), sort_.end());
    std::uint64_t x = kSeed;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 100'000; ++i) map[Next(x) % 400'000] += i;
    std::uint64_t found = 0;
    for (int i = 0; i < 200'000; ++i) {
      const auto it = map.find(Next(x) % 400'000);
      if (it != map.end()) found += it->second;
    }
    std::vector<std::string> names;
    for (int i = 0; i < 50'000; ++i)
      names.push_back("sensor_" + std::to_string(Next(x) % 100'000) +
                      "_reading");
    std::sort(names.begin(), names.end());
    return sort_[kSortWords / 2] + found + names.front().size();
  }

  std::uint64_t Stream() {
    std::uint64_t sum = 0;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::uint64_t& v : stream_) {
        sum += v;
        v = sum;
      }
    }
    return sum;
  }

  std::vector<std::uint64_t> updates_;
  std::vector<std::uint64_t> sort_in_;
  std::vector<std::uint64_t> sort_;
  std::vector<std::uint64_t> stream_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace layerbench
