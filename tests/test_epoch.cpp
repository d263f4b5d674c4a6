// Epoch two-phase delivery (docs/runtime.md): the merge pass must deliver
// an epoch's outboxes in (sender rank, send order) no matter how phase-A
// appends interleaved across shards, and the resulting handler order,
// completion-callback order, trace, and fault schedule must be invariant.
//
// Part 1 exercises the transport directly: per-sender message sequences are
// appended in seeded shuffled global orders (per-sender FIFO preserved —
// the only ordering phase A guarantees) and every shuffle must merge into
// the identical delivery log, callback log, and trace fingerprint, with
// chaos rules both off and on. Part 2 closes the loop at campaign level:
// the full field test's trace fingerprint is byte-identical across threads
// 1/2/8, chaos on and off, for five seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "codec/messages.hpp"
#include "core/system.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace sor::net {
namespace {

// Destination endpoint that logs every (task, seq) it decodes, in handler
// invocation order, and acks the seq like the sensing server would.
class Recorder final : public Endpoint {
 public:
  [[nodiscard]] Bytes HandleFrame(
      std::span<const std::uint8_t> frame) override {
    Result<Message> decoded = DecodeFrame(frame);
    if (!decoded.ok())
      return EncodeFrame(ErrorReply{1, decoded.error().message});
    const auto& up = std::get<SensedDataUpload>(decoded.value());
    deliveries.emplace_back(up.task.value(), up.seq);
    return EncodeFrame(Ack{0, up.seq});
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> deliveries;
};

constexpr int kSenders = 4;
// Uneven message counts so ranks and queue depths don't coincide.
constexpr int kCounts[kSenders] = {5, 3, 4, 2};

std::string SenderName(int i) { return "p" + std::to_string(i); }

// One epoch round: append every sender's messages in the global order given
// by `arrival` (a sequence of sender indices; each occurrence sends that
// sender's next message), merge, and return the observable outcome.
struct EpochOutcome {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> delivered;  // handler
  std::vector<std::pair<std::uint64_t, std::uint64_t>> completed;  // callback
  std::uint64_t trace_fingerprint = 0;
  TransportStats stats;
};

EpochOutcome RunShuffledEpoch(const std::vector<int>& arrival, bool chaos) {
  LoopbackNetwork network;
  Recorder server;
  network.Register("server", &server);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  network.set_tracer(&tracer);
  if (chaos) {
    network.faults().set_seed(99);
    FaultRule lossy;
    lossy.drop = 0.3;
    lossy.corrupt = 0.2;
    lossy.duplicate = 0.2;
    network.faults().AddRule(lossy);
  }

  std::vector<std::string> names;
  for (int i = 0; i < kSenders; ++i) names.push_back(SenderName(i));
  network.BeginEpoch(names);

  EpochOutcome out;
  std::vector<std::uint64_t> next_seq(kSenders, 1);
  for (int sender : arrival) {
    SensedDataUpload up;
    up.task = TaskId{static_cast<std::uint64_t>(sender) + 1};
    up.user = UserId{7};
    up.seq = next_seq[static_cast<std::size_t>(sender)]++;
    const std::uint64_t task = up.task.value();
    const std::uint64_t seq = up.seq;
    network.SendAsync(SenderName(sender), "server", up,
                      [&out, task, seq](Result<Message> r, Message sent) {
                        // Log completion order; under chaos the outcome may
                        // be an error, but the callback still fires in
                        // delivery order, with the message it sent.
                        out.completed.emplace_back(task, seq);
                        EXPECT_EQ(std::get<SensedDataUpload>(sent).seq, seq);
                        if (r.ok()) {
                          const auto* ack = std::get_if<Ack>(&r.value());
                          ASSERT_NE(ack, nullptr);
                          EXPECT_EQ(ack->seq, seq);
                        }
                      });
    // Phase A collects — nothing may be delivered yet.
    EXPECT_TRUE(server.deliveries.empty());
  }
  network.MergeEpoch();
  network.EndEpoch();
  out.delivered = server.deliveries;
  out.trace_fingerprint = tracer.Fingerprint();
  out.stats = network.stats();
  return out;
}

std::vector<int> CanonicalArrival() {
  std::vector<int> arrival;
  for (int i = 0; i < kSenders; ++i)
    for (int m = 0; m < kCounts[i]; ++m) arrival.push_back(i);
  return arrival;
}

TEST(Epoch, MergeDeliversInRankOrderRegardlessOfArrivalShuffle) {
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos on" : "chaos off");
    const EpochOutcome baseline = RunShuffledEpoch(CanonicalArrival(), chaos);

    if (!chaos) {
      // Fault-free: the handler must see rank 0's messages first, in send
      // order, then rank 1's, and so on — the serial interleaving.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
      for (int i = 0; i < kSenders; ++i)
        for (int m = 1; m <= kCounts[i]; ++m)
          expected.emplace_back(static_cast<std::uint64_t>(i) + 1,
                                static_cast<std::uint64_t>(m));
      EXPECT_EQ(baseline.delivered, expected);
      // Every send completes, in the same canonical order.
      EXPECT_EQ(baseline.completed, expected);
    } else {
      // Chaos consumes fault decisions at merge time; some frames never
      // reach the handler, but every callback still fires.
      EXPECT_EQ(baseline.completed.size(), CanonicalArrival().size());
      EXPECT_GT(baseline.stats.dropped + baseline.stats.corrupted +
                    baseline.stats.duplicated,
                0u);
    }

    // Property: ANY arrival interleaving that preserves per-sender FIFO
    // (the only order phase A guarantees) merges to the byte-identical
    // outcome — same handler order, same callbacks, same fault schedule,
    // same trace.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("shuffle seed " + std::to_string(seed));
      std::vector<int> arrival = CanonicalArrival();
      std::mt19937 rng(static_cast<unsigned>(seed));
      std::shuffle(arrival.begin(), arrival.end(), rng);
      const EpochOutcome shuffled = RunShuffledEpoch(arrival, chaos);
      EXPECT_EQ(shuffled.delivered, baseline.delivered);
      EXPECT_EQ(shuffled.completed, baseline.completed);
      EXPECT_EQ(shuffled.trace_fingerprint, baseline.trace_fingerprint);
      EXPECT_EQ(shuffled.stats, baseline.stats);
    }
  }
}

TEST(Epoch, SendAsyncOutsideEpochIsSynchronous) {
  // No epoch (unit-test / serial call sites): SendAsync must behave exactly
  // like Send + inline callback, and an unranked sender inside an epoch
  // must fall back to the same immediate path.
  LoopbackNetwork network;
  Recorder server;
  network.Register("server", &server);

  SensedDataUpload up;
  up.task = TaskId{1};
  up.seq = 42;
  bool completed = false;
  network.SendAsync("phone:x", "server", up, [&](Result<Message> r,
                                                 Message sent) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(sent, Message{up});  // handed back to the sender intact
    completed = true;
  });
  EXPECT_TRUE(completed);  // inline, not deferred
  ASSERT_EQ(server.deliveries.size(), 1u);

  network.BeginEpoch({"ranked"});
  completed = false;
  network.SendAsync("unranked", "server", up, [&](Result<Message> r, Message) {
    ASSERT_TRUE(r.ok());
    completed = true;
  });
  EXPECT_TRUE(completed);  // unranked sender: immediate even mid-epoch
  EXPECT_EQ(server.deliveries.size(), 2u);
  network.EndEpoch();
}

}  // namespace
}  // namespace sor::net

namespace sor::core {
namespace {

world::Scenario SmallCoffee() {
  world::Scenario s = world::MakeCoffeeShopScenario();
  s.phones_per_place = 4;
  s.period_s = 900.0;
  return s;
}

std::uint64_t TraceFingerprint(const world::Scenario& scenario,
                               std::uint64_t seed, int threads, bool chaos) {
  FieldTestConfig config;
  config.budget_per_user = 15;
  config.n_instants = 90;
  config.sigma_s = 60.0;
  config.seed = seed;
  config.threads = threads;
  config.trace = true;
  if (chaos) {
    net::FaultRule lossy;
    lossy.drop = 0.25;
    lossy.corrupt = 0.15;
    lossy.duplicate = 0.15;
    config.chaos_rules = {lossy};
    config.chaos_seed = seed * 31 + 7;
  }
  System system;
  Result<FieldTestResult> run = system.RunFieldTest(scenario, config);
  EXPECT_TRUE(run.ok()) << run.error().str();
  if (!run.ok()) return 0;
  EXPECT_NE(run.value().trace_fingerprint, 0u);
  return run.value().trace_fingerprint;
}

TEST(Epoch, CampaignTraceFingerprintMatrix) {
  // 5 seeds x threads {1,2,8} x chaos {off,on}: the campaign's merged
  // trace — every send, delivery, fault, ack, store, process, rank event —
  // must be byte-identical to the serial run through the epoch pipeline.
  const world::Scenario scenario = SmallCoffee();
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos on" : "chaos off");
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const std::uint64_t serial =
          TraceFingerprint(scenario, seed, 1, chaos);
      for (int threads : {2, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(TraceFingerprint(scenario, seed, threads, chaos), serial);
      }
    }
  }
}

}  // namespace
}  // namespace sor::core
