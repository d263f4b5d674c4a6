// Unit tests for the loopback transport: round trips, routing, error
// surfacing and fault injection.
#include <gtest/gtest.h>

#include "net/transport.hpp"

namespace sor::net {
namespace {

// Echo endpoint: replies with an Ack carrying a recognizable value, or
// propagates decode failures like a real handler.
class EchoEndpoint final : public Endpoint {
 public:
  Bytes HandleFrame(std::span<const std::uint8_t> frame) override {
    ++frames_;
    Result<Message> decoded = DecodeFrame(frame);
    if (!decoded.ok()) {
      ++decode_failures_;
      return EncodeFrame(ErrorReply{
          static_cast<std::uint8_t>(decoded.error().code),
          decoded.error().message});
    }
    return EncodeFrame(Ack{1234});
  }
  int frames_ = 0;
  int decode_failures_ = 0;
};

TEST(Transport, RoundTrip) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  Result<Message> reply = net.Send("echo", Ping{PhoneId{1}});
  ASSERT_TRUE(reply.ok()) << reply.error().str();
  ASSERT_TRUE(std::holds_alternative<Ack>(reply.value()));
  EXPECT_EQ(std::get<Ack>(reply.value()).in_reply_to, 1234u);
  EXPECT_EQ(echo.frames_, 1);
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_GT(net.stats().bytes_sent, 0u);
}

TEST(Transport, UnknownEndpoint) {
  LoopbackNetwork net;
  Result<Message> reply = net.Send("ghost", Ack{});
  EXPECT_EQ(reply.code(), Errc::kUnavailable);
}

TEST(Transport, UnregisterStopsDelivery) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  net.Unregister("echo");
  EXPECT_FALSE(net.Send("echo", Ack{}).ok());
}

TEST(Transport, RemoteErrorSurfacesAsLocalError) {
  class FailingEndpoint final : public Endpoint {
   public:
    Bytes HandleFrame(std::span<const std::uint8_t>) override {
      return EncodeFrame(ErrorReply{
          static_cast<std::uint8_t>(Errc::kOutOfBudget), "budget gone"});
    }
  };
  LoopbackNetwork net;
  FailingEndpoint failing;
  net.Register("f", &failing);
  Result<Message> reply = net.Send("f", Ack{});
  EXPECT_EQ(reply.code(), Errc::kOutOfBudget);
  EXPECT_EQ(reply.error().message, "budget gone");
}

TEST(Transport, DropFaultInjection) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  net.faults().drop_next = 2;
  EXPECT_EQ(net.Send("echo", Ack{}).code(), Errc::kTimeout);
  EXPECT_EQ(net.Send("echo", Ack{}).code(), Errc::kTimeout);
  EXPECT_TRUE(net.Send("echo", Ack{}).ok());  // back to normal
  EXPECT_EQ(echo.frames_, 1);                 // dropped frames never arrived
  EXPECT_EQ(net.stats().dropped, 2u);
}

TEST(Transport, CorruptionFaultInjectionDetectedByReceiver) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  net.faults().corrupt_next = 1;
  Result<Message> reply = net.Send("echo", Ping{PhoneId{7}});
  // The receiver detects the corrupt frame (CRC) and returns an error
  // reply, which surfaces as a decode error on the sender side.
  EXPECT_EQ(reply.code(), Errc::kDecodeError);
  EXPECT_EQ(echo.decode_failures_, 1);
  EXPECT_EQ(net.stats().corrupted, 1u);
  // Next message is clean.
  EXPECT_TRUE(net.Send("echo", Ping{PhoneId{7}}).ok());
}

TEST(Transport, StatsAccumulate) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(net.Send("echo", Ack{}).ok());
  EXPECT_EQ(net.stats().delivered, 5u);
  EXPECT_GT(net.stats().bytes_received, net.stats().delivered);
}

TEST(Transport, StreamCountersCountOneRecordPerLeg) {
  // The shared transport.* family means bytes on a socket: each leg of a
  // loopback delivery counts the record the stream codec would write for
  // its frame (length prefix + frame + CRC trailer), as written and read.
  // A corrupted request still crossed the stream as a valid record.
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(net.Send("echo", Ping{PhoneId{1}}).ok());
  net.faults().corrupt_next = 1;
  EXPECT_FALSE(net.Send("echo", Ack{}).ok());
  const TransportStats s = net.stats();
  obs::MetricsRegistry& m = net.metrics();
  EXPECT_EQ(m.counter("transport.frames_out").value(), 12u);
  EXPECT_EQ(m.counter("transport.frames_in").value(), 12u);
  EXPECT_EQ(m.counter("transport.bytes_out").value(),
            s.bytes_sent + s.bytes_received + 12 * 8);
  EXPECT_EQ(m.counter("transport.bytes_in").value(),
            m.counter("transport.bytes_out").value());
  EXPECT_EQ(m.counter("transport.frame_errors").value(), 0u);
}

TEST(Transport, CorruptedRequestNotCountedDelivered) {
  // A send is accounted as corrupted XOR delivered — never both.
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  net.faults().corrupt_next = 1;
  EXPECT_FALSE(net.Send("echo", Ack{}).ok());
  EXPECT_EQ(net.stats().corrupted, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(Transport, ResponseDropIsLostAck) {
  // The handler runs — the server-side effect happened — but the sender
  // sees a timeout it cannot distinguish from a dropped request.
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  FaultRule rule;
  rule.on_request = false;
  rule.drop = 1.0;
  net.faults().AddRule(rule);
  EXPECT_EQ(net.Send("me", "echo", Ack{}).code(), Errc::kTimeout);
  EXPECT_EQ(echo.frames_, 1);  // the request DID arrive
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_EQ(net.stats().responses_dropped, 1u);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(Transport, ResponseCorruptionFailsDecodeAtSender) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  FaultRule rule;
  rule.on_request = false;
  rule.corrupt = 1.0;
  net.faults().AddRule(rule);
  EXPECT_EQ(net.Send("me", "echo", Ack{}).code(), Errc::kDecodeError);
  EXPECT_EQ(echo.decode_failures_, 0);  // request was clean
  EXPECT_EQ(net.stats().responses_corrupted, 1u);
}

TEST(Transport, DuplicateDeliveryRunsHandlerTwice) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  FaultRule rule;
  rule.on_response = false;
  rule.duplicate = 1.0;
  net.faults().AddRule(rule);
  EXPECT_TRUE(net.Send("me", "echo", Ack{}).ok());
  EXPECT_EQ(echo.frames_, 2);  // at-least-once: the handler ran twice
  EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST(Transport, PartitionWindowBlocksOnlyWhileOpen) {
  SimClock clock;
  LoopbackNetwork net;
  net.set_clock(&clock);
  EchoEndpoint echo;
  net.Register("echo", &echo);
  FaultRule rule;
  rule.partition = SimInterval{SimTime{1'000}, SimTime{2'000}};
  net.faults().AddRule(rule);

  EXPECT_TRUE(net.Send("me", "echo", Ack{}).ok());  // before the window
  clock.advance_to(SimTime{1'500});
  EXPECT_EQ(net.Send("me", "echo", Ack{}).code(), Errc::kUnavailable);
  EXPECT_EQ(net.stats().partitioned, 1u);
  clock.advance_to(SimTime{3'000});
  EXPECT_TRUE(net.Send("me", "echo", Ack{}).ok());  // healed
}

TEST(Transport, PerLinkRulesMatchEndpointNames) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  FaultRule rule;
  rule.from = "phone:*";  // only phones suffer on this wire
  rule.drop = 1.0;
  net.faults().AddRule(rule);

  EXPECT_FALSE(net.Send("phone:tok-1", "echo", Ack{}).ok());
  EXPECT_TRUE(net.Send("laptop", "echo", Ack{}).ok());
  // Per-link accounting keeps the two senders apart.
  EXPECT_EQ(net.link_stats("phone:tok-1", "echo").dropped, 1u);
  EXPECT_EQ(net.link_stats("phone:tok-1", "echo").delivered, 0u);
  EXPECT_EQ(net.link_stats("laptop", "echo").delivered, 1u);
  // The anonymous two-argument Send has the empty source name, which a
  // prefix rule does not match.
  EXPECT_TRUE(net.Send("echo", Ack{}).ok());
}

TEST(FaultInjector, WildcardMatching) {
  EXPECT_TRUE(FaultInjector::Matches("*", "anything"));
  EXPECT_TRUE(FaultInjector::Matches("*", ""));
  EXPECT_TRUE(FaultInjector::Matches("phone:*", "phone:tok-9"));
  EXPECT_TRUE(FaultInjector::Matches("phone:*", "phone:"));
  EXPECT_FALSE(FaultInjector::Matches("phone:*", "server"));
  EXPECT_FALSE(FaultInjector::Matches("phone:*", ""));
  EXPECT_TRUE(FaultInjector::Matches("server", "server"));
  EXPECT_FALSE(FaultInjector::Matches("server", "server2"));
}

TEST(FaultInjector, SameSeedSameFaultSchedule) {
  // The chaos contract: (seed, rules, traversal sequence) fully determine
  // every fault decision, down to identical per-link transport stats.
  auto run = [](std::uint64_t seed) {
    SimClock clock;
    LoopbackNetwork net;
    net.set_clock(&clock);
    EchoEndpoint echo;
    net.Register("echo", &echo);
    net.faults().set_seed(seed);
    FaultRule rule;
    rule.drop = 0.3;
    rule.corrupt = 0.2;
    rule.duplicate = 0.2;
    // A partition in the middle must not desynchronize the stream.
    FaultRule part;
    part.partition = SimInterval{SimTime{40}, SimTime{60}};
    net.faults().AddRule(rule);
    net.faults().AddRule(part);
    for (int i = 0; i < 100; ++i) {
      clock.advance(SimDuration{1});
      (void)net.Send("phone:a", "echo", Ping{PhoneId{1}});
      (void)net.Send("phone:b", "echo", Ack{42});
    }
    return net.all_link_stats();
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a, b);
  // And faults actually fired (the schedule is not trivially empty).
  TransportStats total;
  for (const auto& [link, s] : a) {
    total.dropped += s.dropped;
    total.corrupted += s.corrupted;
    total.duplicated += s.duplicated;
    total.partitioned += s.partitioned;
  }
  EXPECT_GT(total.dropped, 0u);
  EXPECT_GT(total.partitioned, 0u);
}

TEST(Transport, StatsViewMatchesRegistry) {
  // TransportStats is a *view* over the metrics registry: every field must
  // equal the sum of the corresponding per-link "net.*|from=..|to=.."
  // counters. Exercise every outcome class so no field is trivially zero.
  SimClock clock;
  LoopbackNetwork net;
  net.set_clock(&clock);
  EchoEndpoint echo;
  net.Register("echo", &echo);
  net.faults().set_seed(11);
  FaultRule rule;
  rule.drop = 0.3;
  rule.corrupt = 0.2;
  rule.duplicate = 0.2;
  rule.latency = SimDuration{5};
  net.faults().AddRule(rule);
  for (int i = 0; i < 200; ++i) {
    clock.advance(SimDuration{1});
    (void)net.Send("phone:a", "echo", Ping{PhoneId{1}});
    (void)net.Send("phone:b", "echo", Ack{7});
  }

  // Rebuild the aggregate straight from the registry export.
  std::map<std::string, std::uint64_t> by_base;
  for (const auto& e : net.metrics().Read()) {
    const std::size_t bar = e.name.find('|');
    // Unlabeled entries are network-global (the transport.* stream-framing
    // family), not part of the per-link aggregate under test.
    if (bar == std::string::npos) continue;
    by_base[e.name.substr(0, bar)] += e.counter_value;
  }
  const TransportStats s = net.stats();
  EXPECT_EQ(by_base["net.delivered"], s.delivered);
  EXPECT_EQ(by_base["net.dropped"], s.dropped);
  EXPECT_EQ(by_base["net.corrupted"], s.corrupted);
  EXPECT_EQ(by_base["net.duplicated"], s.duplicated);
  EXPECT_EQ(by_base["net.responses_dropped"], s.responses_dropped);
  EXPECT_EQ(by_base["net.responses_corrupted"], s.responses_corrupted);
  EXPECT_EQ(by_base["net.bytes_sent"], s.bytes_sent);
  EXPECT_EQ(by_base["net.bytes_received"], s.bytes_received);
  EXPECT_EQ(by_base["net.latency_injected_ms"], s.latency_injected_ms);
  EXPECT_GT(s.delivered, 0u);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.latency_injected_ms, 0u);

  // And the per-link view must match the labeled counters exactly.
  const TransportStats a = net.link_stats("phone:a", "echo");
  EXPECT_EQ(a.delivered,
            net.metrics()
                .counter(obs::LabeledName("net.delivered",
                                          {{"from", "phone:a"}, {"to", "echo"}}))
                .value());
  // The two links plus nothing else account for the aggregate.
  const TransportStats b = net.link_stats("phone:b", "echo");
  EXPECT_EQ(a.delivered + b.delivered, s.delivered);
}

TEST(Transport, SharedRegistryInjection) {
  // System injects its own registry; transport counters must land there.
  obs::MetricsRegistry shared;
  LoopbackNetwork net;
  net.set_metrics(&shared);
  EchoEndpoint echo;
  net.Register("echo", &echo);
  ASSERT_TRUE(net.Send("me", "echo", Ack{}).ok());
  EXPECT_EQ(shared
                .counter(obs::LabeledName("net.delivered",
                                          {{"from", "me"}, {"to", "echo"}}))
                .value(),
            1u);
  EXPECT_EQ(net.stats().delivered, 1u);
  // Reverting to the private registry starts a fresh view.
  net.set_metrics(nullptr);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(Transport, TraceEventsRecordDeliveryOutcomes) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  SimClock clock;
  clock.advance(SimDuration{42});
  LoopbackNetwork net;
  net.set_clock(&clock);
  net.set_tracer(&tracer);
  EchoEndpoint echo;
  net.Register("echo", &echo);

  ASSERT_TRUE(net.Send("phone:a", "echo", Ping{PhoneId{1}}).ok());
  net.faults().drop_next = 1;
  EXPECT_FALSE(net.Send("phone:a", "echo", Ack{}).ok());

  const auto events = tracer.Merged();
  // send+delivered for the clean round trip, send+dropped for the loss.
  ASSERT_EQ(events.size(), 4u);
  const obs::StreamId phone = tracer.RegisterStream("phone:a");
  const obs::StreamId server = tracer.RegisterStream("echo");
  EXPECT_EQ(events[0].kind, obs::EventKind::kMsgSend);
  EXPECT_EQ(events[0].stream, phone);
  EXPECT_EQ(events[0].a, server);  // payload a = peer stream
  EXPECT_EQ(events[0].time_ms, 42);
  EXPECT_EQ(events[0].c, static_cast<std::uint64_t>(TypeOf(Message{Ping{}})));
  EXPECT_EQ(events[1].kind, obs::EventKind::kMsgDelivered);
  EXPECT_EQ(events[2].kind, obs::EventKind::kMsgSend);
  EXPECT_EQ(events[3].kind, obs::EventKind::kMsgDropped);
  EXPECT_EQ(events[3].b, 0u);  // not a partition
}

TEST(FaultInjector, ScriptedCountersTakePrecedenceAndClearResets) {
  LoopbackNetwork net;
  EchoEndpoint echo;
  net.Register("echo", &echo);
  FaultRule rule;
  rule.drop = 1.0;
  net.faults().AddRule(rule);
  net.faults().drop_next = 1;
  EXPECT_FALSE(net.faults().empty());
  EXPECT_FALSE(net.Send("me", "echo", Ack{}).ok());
  net.faults().Clear();
  EXPECT_TRUE(net.faults().empty());
  EXPECT_TRUE(net.Send("me", "echo", Ack{}).ok());
}

// --- node fault domain -------------------------------------------------------

TEST(NodeFaults, DownNodeLosesFramesBeforeHandler) {
  LoopbackNetwork net;
  SimClock clock;
  net.set_clock(&clock);
  EchoEndpoint echo;
  net.Register("echo", &echo);

  net.faults().SetNodeDown("echo");  // indefinite: needs SetNodeUp
  Result<Message> r = net.Send("me", "echo", Ack{});
  EXPECT_EQ(r.code(), Errc::kUnavailable);
  EXPECT_EQ(echo.frames_, 0);  // handler never ran
  EXPECT_EQ(net.stats().node_unreachable, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);

  net.faults().SetNodeUp("echo");
  EXPECT_TRUE(net.Send("me", "echo", Ack{}).ok());
  EXPECT_EQ(echo.frames_, 1);
}

TEST(NodeFaults, TimedDownExpiresWithTheClock) {
  LoopbackNetwork net;
  SimClock clock;
  net.set_clock(&clock);
  EchoEndpoint echo;
  net.Register("server", &echo);

  // Server stall: down until t=10s, lifts itself without SetNodeUp.
  net.faults().SetNodeDown("server", SimTime{10'000});
  EXPECT_FALSE(net.Send("phone:a", "server", Ack{}).ok());
  clock.advance_to(SimTime{10'000});
  EXPECT_TRUE(net.Send("phone:a", "server", Ack{}).ok());
}

TEST(NodeFaults, DecisionsArePureAndSeeded) {
  FaultInjector a;
  a.set_node_seed(7);
  NodeFaultRule rule;
  rule.endpoint = "phone:*";
  rule.crash = 0.05;
  rule.uninstall = 0.02;
  a.AddNodeRule(rule);

  FaultInjector b;
  b.set_node_seed(7);
  b.AddNodeRule(rule);

  int crashes = 0, uninstalls = 0;
  for (int t = 0; t < 2'000; ++t) {
    const SimTime now{t * 10'000};
    for (const char* name : {"phone:1", "phone:2", "server"}) {
      const NodeEvent ea = a.DecideNodeEvent(name, now);
      // Pure function: a second injector with the same seed agrees, in any
      // evaluation order, with no stream to advance.
      const NodeEvent eb = b.DecideNodeEvent(name, now);
      EXPECT_EQ(static_cast<int>(ea.kind), static_cast<int>(eb.kind));
      if (std::string(name) == "server") {
        // Rule matches phones only.
        EXPECT_EQ(ea.kind, NodeEvent::Kind::kNone);
        continue;
      }
      crashes += ea.kind == NodeEvent::Kind::kCrash;
      uninstalls += ea.kind == NodeEvent::Kind::kUninstall;
    }
  }
  // ~4000 phone-decisions at p=.05/.02: both events occur, neither always.
  EXPECT_GT(crashes, 50);
  EXPECT_LT(crashes, 1'000);
  EXPECT_GT(uninstalls, 10);
}

TEST(NodeFaults, NodeDecisionsDontShiftLinkFaultStream) {
  // Arming the node domain must not consume the link-fault stream: the
  // same link schedule replays with and without node rules.
  auto schedule = [](bool with_node_rules) {
    FaultInjector f;
    f.set_seed(21);
    FaultRule lossy;
    lossy.drop = 0.5;
    f.AddRule(lossy);
    if (with_node_rules) {
      f.set_node_seed(5);
      NodeFaultRule nr;
      nr.crash = 0.5;
      f.AddNodeRule(nr);
    }
    std::string out;
    for (int i = 0; i < 64; ++i) {
      if (with_node_rules)
        (void)f.DecideNodeEvent("phone:1", SimTime{i * 1'000});
      out += f.Decide("a", "b", Direction::kRequest, SimTime{}).drop ? 'x'
                                                                     : '.';
    }
    return out;
  };
  EXPECT_EQ(schedule(false), schedule(true));
}

}  // namespace
}  // namespace sor::net
