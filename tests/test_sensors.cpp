// Unit tests for the sensor layer: buffered providers (shared-buffer energy
// saving, §II-A), the GPS provider, the Sensordrone Bluetooth dependency,
// and the SensorManager's routing + timeout cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sensors/manager.hpp"
#include "sensors/providers.hpp"

namespace sor::sensors {
namespace {

// Deterministic scripted environment: value = base + t_seconds.
class FakeEnvironment final : public SensorEnvironment {
 public:
  double Sample(SensorKind kind, SimTime t) override {
    ++samples_;
    return static_cast<double>(static_cast<int>(kind)) * 100.0 + t.seconds();
  }
  GeoPoint Position(SimTime t) override {
    ++position_calls_;
    return GeoPoint{43.0 + t.seconds() * 1e-5, -76.0, 100.0 + t.seconds()};
  }
  int samples_ = 0;
  int position_calls_ = 0;
};

TEST(BufferedProvider, AcquiresRequestedSamples) {
  FakeEnvironment env;
  EmbeddedProvider p(SensorKind::kLight, env);
  Result<std::vector<Reading>> r =
      p.Acquire({SimTime{10'000}, SimDuration{4'000}, 5});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 5u);
  // Samples evenly spread over [t, t+Δt].
  EXPECT_EQ(r.value().front().time.ms, 10'000);
  EXPECT_EQ(r.value().back().time.ms, 14'000);
  EXPECT_EQ(r.value()[0].kind, SensorKind::kLight);
  EXPECT_EQ(p.stats().physical_acquisitions, 5u);
}

TEST(BufferedProvider, SingleSampleAtWindowStart) {
  FakeEnvironment env;
  EmbeddedProvider p(SensorKind::kLight, env);
  Result<std::vector<Reading>> r =
      p.Acquire({SimTime{5'000}, SimDuration{10'000}, 1});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].time.ms, 5'000);
}

TEST(BufferedProvider, SharedBufferServesOverlappingTasks) {
  // Two tasks requesting the same window: the second is served from the
  // buffer (light freshness = 3 s), saving sensor energy.
  FakeEnvironment env;
  EmbeddedProvider p(SensorKind::kLight, env);
  ASSERT_TRUE(p.Acquire({SimTime{10'000}, SimDuration{2'000}, 3}).ok());
  const auto before = p.stats().physical_acquisitions;
  ASSERT_TRUE(p.Acquire({SimTime{10'500}, SimDuration{2'000}, 3}).ok());
  EXPECT_EQ(p.stats().physical_acquisitions, before);  // all buffered
  EXPECT_EQ(p.stats().buffered_hits, 3u);
}

TEST(BufferedProvider, StaleBufferNotReused) {
  FakeEnvironment env;
  EmbeddedProvider p(SensorKind::kAccelerometer, env);  // freshness 100 ms
  ASSERT_TRUE(p.Acquire({SimTime{0}, SimDuration{0}, 1}).ok());
  ASSERT_TRUE(p.Acquire({SimTime{1'000}, SimDuration{0}, 1}).ok());
  EXPECT_EQ(p.stats().physical_acquisitions, 2u);
  EXPECT_EQ(p.stats().buffered_hits, 0u);
}

TEST(BufferedProvider, FreshnessVariesByKind) {
  EXPECT_LT(EmbeddedProvider::DefaultFreshness(SensorKind::kAccelerometer),
            EmbeddedProvider::DefaultFreshness(SensorKind::kDroneTemperature));
}

TEST(BufferedProvider, InvalidRequestsRejected) {
  FakeEnvironment env;
  EmbeddedProvider p(SensorKind::kLight, env);
  EXPECT_FALSE(p.Acquire({SimTime{0}, SimDuration{1'000}, 0}).ok());
  EXPECT_FALSE(p.Acquire({SimTime{0}, SimDuration{-5}, 1}).ok());
  EXPECT_EQ(p.stats().failures, 2u);
}

TEST(BufferedProvider, TrimBufferDropsOldReadings) {
  FakeEnvironment env;
  EmbeddedProvider p(SensorKind::kLight, env);
  ASSERT_TRUE(p.Acquire({SimTime{0}, SimDuration{1'000}, 4}).ok());
  EXPECT_EQ(p.buffer_size(), 4u);
  p.TrimBuffer(SimTime{900});
  EXPECT_EQ(p.buffer_size(), 1u);
}

TEST(BufferedProvider, TrimToHorizonKeepsWhatAFreshnessAwayRequestReuses) {
  FakeEnvironment env;
  EmbeddedProvider p(SensorKind::kLight, env);  // freshness 3 s
  ASSERT_TRUE(p.Acquire({SimTime{0}, SimDuration{9'000}, 4}).ok());
  ASSERT_EQ(p.buffer_size(), 4u);  // readings at 0, 3, 6 and 9 s
  p.TrimToHorizon(SimTime{6'000});
  EXPECT_EQ(p.buffer_size(), 3u);  // 3 s is still reusable at t = 6 s
  ASSERT_TRUE(p.Acquire({SimTime{6'000}, SimDuration{0}, 1}).ok());
  EXPECT_EQ(p.stats().buffered_hits, 1u);
}

// Lockstep: a provider trimmed after every simulated tick must answer a
// seeded stream of acquisitions exactly like one that never trims, for
// every sensor kind (each with its own freshness), as long as no request
// asks for a time before the horizon it was trimmed to.
TEST(BufferedProvider, TrimmingIsInvisibleToLaterAcquisitions) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int k = 0; k < kSensorKindCount; ++k) {
      const auto kind = static_cast<SensorKind>(k);
      FakeEnvironment env;
      BluetoothLink link;
      link.Pair();
      std::unique_ptr<Provider> trimmed = MakeProvider(kind, env, link);
      std::unique_ptr<Provider> kept = MakeProvider(kind, env, link);
      Rng rng(seed * 100 + static_cast<std::uint64_t>(k));
      SimTime horizon{0};
      std::size_t trimmed_peak = 0;
      for (int tick = 0; tick < 400; ++tick) {
        const int requests = static_cast<int>(rng.uniform_int(0, 3));
        for (int i = 0; i < requests; ++i) {
          // Some requests sit exactly on the horizon, the earliest time a
          // request may ask for.
          const SimTime t =
              rng.chance(0.25)
                  ? horizon
                  : horizon + SimDuration{rng.uniform_int(0, 20'000)};
          const AcquireRequest req{t, SimDuration{rng.uniform_int(0, 10'000)},
                                   static_cast<int>(rng.uniform_int(1, 6))};
          Result<std::vector<Reading>> a = trimmed->Acquire(req);
          Result<std::vector<Reading>> b = kept->Acquire(req);
          ASSERT_TRUE(a.ok() && b.ok()) << to_string(kind);
          ASSERT_EQ(a.value().size(), b.value().size());
          for (std::size_t j = 0; j < a.value().size(); ++j) {
            EXPECT_EQ(a.value()[j].time, b.value()[j].time);
            EXPECT_EQ(a.value()[j].value, b.value()[j].value);
          }
        }
        ASSERT_EQ(trimmed->stats().physical_acquisitions,
                  kept->stats().physical_acquisitions)
            << to_string(kind) << " seed " << seed << " tick " << tick;
        ASSERT_EQ(trimmed->stats().buffered_hits, kept->stats().buffered_hits);
        horizon = horizon + SimDuration{rng.uniform_int(0, 10'000)};
        trimmed->TrimToHorizon(horizon);
        trimmed_peak = std::max(
            trimmed_peak,
            static_cast<BufferedProvider&>(*trimmed).buffer_size());
      }
      // The trimmed buffer stays a window, the untrimmed one a history.
      EXPECT_LT(trimmed_peak,
                static_cast<BufferedProvider&>(*kept).buffer_size())
          << to_string(kind);
    }
  }
}

TEST(BufferedProvider, MergesFreshReadingsLikeOneByOneInsertion) {
  // Each physical read gets a distinct value, so which buffered reading a
  // request reuses is visible even among readings with the same time.
  struct CountingEnvironment final : SensorEnvironment {
    double Sample(SensorKind, SimTime) override { return ++n; }
    GeoPoint Position(SimTime) override { return {}; }
    double n = 0;
  };
  // Reference: this acquisition's fresh readings are set apart, then each
  // is inserted after every buffered reading no later than it.
  struct Reference {
    CountingEnvironment env;
    SimDuration freshness;
    std::deque<Reading> buffer;
    std::vector<Reading> Acquire(const AcquireRequest& req) {
      std::vector<Reading> out;
      std::vector<Reading> fresh;
      for (int i = 0; i < req.samples; ++i) {
        const SimTime want =
            req.samples == 1
                ? req.t
                : req.t + SimDuration{req.window.ms * i / (req.samples - 1)};
        const Reading* hit = nullptr;
        for (auto it = buffer.rbegin(); it != buffer.rend(); ++it) {
          if (it->time < want - freshness) break;
          if (it->time <= want + freshness) {
            hit = &*it;
            break;
          }
        }
        if (hit == nullptr) {
          fresh.push_back(
              Reading{SensorKind::kLight, want, env.Sample({}, want), {}});
        }
        out.push_back(hit != nullptr ? *hit : fresh.back());
      }
      for (const Reading& r : fresh) {
        buffer.insert(std::upper_bound(buffer.begin(), buffer.end(), r,
                                       [](const Reading& a, const Reading& b) {
                                         return a.time < b.time;
                                       }),
                      r);
      }
      return out;
    }
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const SimDuration freshness{rng.uniform_int(0, 600)};
    CountingEnvironment env;
    BufferedProvider provider(SensorKind::kLight, env, freshness);
    Reference reference{{}, freshness, {}};
    for (int i = 0; i < 300; ++i) {
      // Overlapping windows of several requests per tick interleave the
      // fresh readings with buffered ones.
      const AcquireRequest req{SimTime{rng.uniform_int(0, 20'000)},
                               SimDuration{rng.uniform_int(0, 5'000)},
                               static_cast<int>(rng.uniform_int(1, 6))};
      Result<std::vector<Reading>> got = provider.Acquire(req);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), reference.Acquire(req))
          << "seed " << seed << " request " << i;
      ASSERT_EQ(provider.buffer_size(), reference.buffer.size());
    }
  }
}

TEST(Manager, TrimToHorizonReachesEveryProvider) {
  FakeEnvironment env;
  BluetoothLink link;
  link.Pair();
  SensorManager manager;
  manager.RegisterProvider(MakeProvider(SensorKind::kLight, env, link));
  manager.RegisterProvider(MakeProvider(SensorKind::kWifi, env, link));
  for (SensorKind kind : {SensorKind::kLight, SensorKind::kWifi})
    ASSERT_TRUE(manager.Acquire(kind, {SimTime{0}, SimDuration{0}, 1}).ok());
  manager.TrimToHorizon(SimTime{60'000});
  for (SensorKind kind : {SensorKind::kLight, SensorKind::kWifi}) {
    EXPECT_EQ(
        static_cast<BufferedProvider*>(manager.provider(kind))->buffer_size(),
        0u)
        << to_string(kind);
  }
}

TEST(GpsProvider, ReadingsCarryLocationFixes) {
  FakeEnvironment env;
  GpsProvider p(env);
  Result<std::vector<Reading>> r =
      p.Acquire({SimTime{60'000}, SimDuration{30'000}, 3});
  ASSERT_TRUE(r.ok());
  for (const Reading& reading : r.value()) {
    ASSERT_TRUE(reading.location.has_value());
    EXPECT_GT(reading.location->lat_deg, 42.9);
    EXPECT_DOUBLE_EQ(reading.value, reading.location->alt_m);
  }
  EXPECT_EQ(env.position_calls_, 3);
}

TEST(Sensordrone, RequiresPairing) {
  FakeEnvironment env;
  BluetoothLink link;  // not paired
  SensordroneProvider p(SensorKind::kDroneTemperature, env, link);
  Result<std::vector<Reading>> r =
      p.Acquire({SimTime{0}, SimDuration{1'000}, 2});
  EXPECT_EQ(r.code(), Errc::kUnavailable);
  EXPECT_EQ(p.stats().failures, 1u);

  link.Pair();
  EXPECT_TRUE(p.Acquire({SimTime{0}, SimDuration{1'000}, 2}).ok());
  link.Unpair();
  EXPECT_FALSE(p.Acquire({SimTime{60'000}, SimDuration{1'000}, 2}).ok());
}

TEST(Factory, CoversEveryKind) {
  FakeEnvironment env;
  BluetoothLink link;
  link.Pair();
  for (int k = 0; k < kSensorKindCount; ++k) {
    const auto kind = static_cast<SensorKind>(k);
    auto p = MakeProvider(kind, env, link);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), kind);
    EXPECT_TRUE(p->Acquire({SimTime{0}, SimDuration{1'000}, 1}).ok())
        << to_string(kind);
  }
}

TEST(Manager, RoutesToRegisteredProvider) {
  FakeEnvironment env;
  BluetoothLink link;
  link.Pair();
  SensorManager manager;
  manager.RegisterProvider(MakeProvider(SensorKind::kLight, env, link));
  EXPECT_TRUE(manager.Supports(SensorKind::kLight));
  EXPECT_FALSE(manager.Supports(SensorKind::kWifi));
  Result<std::vector<Reading>> r =
      manager.Acquire(SensorKind::kLight, {SimTime{0}, SimDuration{0}, 1});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(manager.Acquire(SensorKind::kWifi,
                            {SimTime{0}, SimDuration{0}, 1})
                .code(),
            Errc::kUnavailable);
}

TEST(Manager, TimeoutCancelsSlowProviders) {
  FakeEnvironment env;
  SensorManager manager;
  manager.RegisterProvider(std::make_unique<GpsProvider>(env));  // 800 ms
  // Tight timeout: the acquisition is cancelled (§II-A).
  Result<std::vector<Reading>> r = manager.Acquire(
      SensorKind::kGps, {SimTime{0}, SimDuration{0}, 1}, SimDuration{100});
  EXPECT_EQ(r.code(), Errc::kTimeout);
  EXPECT_EQ(manager.timeouts(), 1u);
  EXPECT_EQ(env.position_calls_, 0);  // sensor never touched
  // Generous timeout: fine.
  EXPECT_TRUE(manager
                  .Acquire(SensorKind::kGps,
                           {SimTime{0}, SimDuration{0}, 1},
                           SimDuration{5'000})
                  .ok());
}

TEST(Manager, ReplacingProviderKeepsLatest) {
  FakeEnvironment env;
  BluetoothLink link;
  SensorManager manager;
  manager.RegisterProvider(MakeProvider(SensorKind::kLight, env, link));
  manager.RegisterProvider(MakeProvider(SensorKind::kLight, env, link));
  EXPECT_EQ(manager.SupportedKinds().size(), 1u);
}

}  // namespace
}  // namespace sor::sensors
