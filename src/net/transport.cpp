#include "net/transport.hpp"

#include <utility>

#include "codec/frame_stream.hpp"

namespace sor::net {

namespace {

// Endpoint names double as trace stream names; the anonymous sender gets a
// stable placeholder so its events still land on a stream.
const std::string& StreamNameFor(const std::string& endpoint) {
  static const std::string kAnon = "client";
  return endpoint.empty() ? kAnon : endpoint;
}

}  // namespace

LoopbackNetwork::LoopbackNetwork()
    : own_registry_(std::make_unique<obs::MetricsRegistry>()),
      registry_(own_registry_.get()) {
  BindStreamCells();
}

void LoopbackNetwork::BindStreamCells() {
  stream_.bytes_in = &registry_->counter("transport.bytes_in");
  stream_.bytes_out = &registry_->counter("transport.bytes_out");
  stream_.frames_in = &registry_->counter("transport.frames_in");
  stream_.frames_out = &registry_->counter("transport.frames_out");
  // Counters only the socket and pipe transports move, registered here too
  // (at zero) so every metrics export carries the full transport family
  // under one naming scheme.
  (void)registry_->counter("transport.frame_errors");
  (void)registry_->counter("transport.connections");
  (void)registry_->counter("transport.accept_timeouts");
  (void)registry_->counter("transport.read_timeouts");
  (void)registry_->counter("transport.write_timeouts");
}

void LoopbackNetwork::CountStreamLeg(std::size_t frame_size) {
  // What one framed record of this frame would put on a socket, written by
  // the sender and read by the receiver.
  const std::uint64_t record = frame_size + codec::kFrameOverhead;
  stream_.bytes_out->Inc(record);
  stream_.frames_out->Inc();
  stream_.bytes_in->Inc(record);
  stream_.frames_in->Inc();
}

void LoopbackNetwork::Register(const std::string& name, Endpoint* endpoint) {
  endpoints_[name] = endpoint;
}

void LoopbackNetwork::Unregister(const std::string& name) {
  endpoints_.erase(name);
}

void LoopbackNetwork::set_metrics(obs::MetricsRegistry* registry) {
  registry_ = registry != nullptr ? registry : own_registry_.get();
  links_.clear();  // cached handles point into the old registry
  outbox_depth_ = nullptr;
  epoch_merges_ = nullptr;
  BindStreamCells();
}

void LoopbackNetwork::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& [key, cells] : links_) cells.have_streams = false;
}

LoopbackNetwork::LinkCells& LoopbackNetwork::Cells(const std::string& from,
                                                   const std::string& to) {
  auto [it, inserted] = links_.try_emplace({from, to});
  LinkCells& c = it->second;
  if (inserted) {
    auto counter = [this, &from, &to](std::string_view base) {
      return &registry_->counter(
          obs::LabeledName(base, {{"from", from}, {"to", to}}));
    };
    c.delivered = counter("net.delivered");
    c.dropped = counter("net.dropped");
    c.corrupted = counter("net.corrupted");
    c.duplicated = counter("net.duplicated");
    c.partitioned = counter("net.partitioned");
    c.responses_dropped = counter("net.responses_dropped");
    c.responses_corrupted = counter("net.responses_corrupted");
    c.node_unreachable = counter("net.node_unreachable");
    c.bytes_sent = counter("net.bytes_sent");
    c.bytes_received = counter("net.bytes_received");
    c.latency_injected_ms = counter("net.latency_injected_ms");
  }
  if (!c.have_streams && tracer_ != nullptr) {
    c.from_stream = tracer_->RegisterStream(StreamNameFor(from));
    c.to_stream = tracer_->RegisterStream(StreamNameFor(to));
    c.have_streams = true;
  }
  return c;
}

TransportStats LoopbackNetwork::ReadCells(const LinkCells& c) {
  TransportStats s;
  s.delivered = c.delivered->value();
  s.dropped = c.dropped->value();
  s.corrupted = c.corrupted->value();
  s.duplicated = c.duplicated->value();
  s.partitioned = c.partitioned->value();
  s.responses_dropped = c.responses_dropped->value();
  s.responses_corrupted = c.responses_corrupted->value();
  s.node_unreachable = c.node_unreachable->value();
  s.bytes_sent = c.bytes_sent->value();
  s.bytes_received = c.bytes_received->value();
  s.latency_injected_ms = c.latency_injected_ms->value();
  return s;
}

TransportStats LoopbackNetwork::stats() const {
  TransportStats total;
  for (const auto& [key, cells] : links_) {
    const TransportStats s = ReadCells(cells);
    total.delivered += s.delivered;
    total.dropped += s.dropped;
    total.corrupted += s.corrupted;
    total.duplicated += s.duplicated;
    total.partitioned += s.partitioned;
    total.responses_dropped += s.responses_dropped;
    total.responses_corrupted += s.responses_corrupted;
    total.node_unreachable += s.node_unreachable;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
    total.latency_injected_ms += s.latency_injected_ms;
  }
  return total;
}

TransportStats LoopbackNetwork::link_stats(const std::string& from,
                                           const std::string& to) const {
  const auto it = links_.find({from, to});
  return it == links_.end() ? TransportStats{} : ReadCells(it->second);
}

std::map<std::pair<std::string, std::string>, TransportStats>
LoopbackNetwork::all_link_stats() const {
  std::map<std::pair<std::string, std::string>, TransportStats> out;
  for (const auto& [key, cells] : links_) out.emplace(key, ReadCells(cells));
  return out;
}

void LoopbackNetwork::BeginEpoch(std::vector<std::string> senders) {
  epoch_.names = std::move(senders);
  epoch_.rank_of.clear();
  for (std::size_t i = 0; i < epoch_.names.size(); ++i)
    epoch_.rank_of.emplace(epoch_.names[i], i);
  epoch_.outbox.assign(epoch_.names.size(), {});
  epoch_.merging = false;
  epoch_.active = true;
  outbox_depth_ = &registry_->gauge("net.outbox_depth");
  epoch_merges_ = &registry_->counter("net.epoch_merges");
}

void LoopbackNetwork::MergeEpoch() {
  // Driver thread only, after the executor's barrier: every shard's phase-A
  // appends happen-before this read. Deliveries run in (sender rank, send
  // order) — the exact interleaving a serial loop over the senders
  // produces — and each callback fires right after its own delivery, so a
  // sender observes outcome i before outcome i+1, just as it would have
  // synchronously.
  epoch_.merging = true;
  std::uint64_t depth = 0;
  for (std::size_t rank = 0; rank < epoch_.outbox.size(); ++rank) {
    std::vector<EpochEntry>& slot = epoch_.outbox[rank];
    depth += slot.size();
    const std::string& from = epoch_.names[rank];
    for (EpochEntry& entry : slot) {
      Result<Message> outcome = Deliver(from, entry.to,
                                        std::move(entry.frame),
                                        TypeOf(entry.sent));
      if (entry.done) entry.done(std::move(outcome), std::move(entry.sent));
    }
    slot.clear();
  }
  if (outbox_depth_ != nullptr)
    outbox_depth_->Set(static_cast<double>(depth));
  if (epoch_merges_ != nullptr) epoch_merges_->Inc();
  epoch_.merging = false;
}

void LoopbackNetwork::EndEpoch() {
  epoch_.active = false;
  epoch_.merging = false;
  epoch_.rank_of.clear();
  epoch_.names.clear();
  epoch_.outbox.clear();
}

void LoopbackNetwork::SendAsync(const std::string& from, const std::string& to,
                                Message m, SendCallback done) {
  if (epoch_.active && !epoch_.merging) {
    if (auto r = epoch_.rank_of.find(from); r != epoch_.rank_of.end()) {
      // Phase A: encode on the sender's shard (the only CPU this path
      // spends), park the frame, return immediately. Only the owning shard
      // touches outbox[rank] until the barrier.
      Bytes frame = EncodeFrame(m);
      epoch_.outbox[r->second].push_back(
          EpochEntry{to, std::move(frame), std::move(m), std::move(done)});
      return;
    }
  }
  // No epoch, unranked sender, or nested send from inside the merge pass:
  // synchronous semantics, callback inline.
  Result<Message> outcome = Send(from, to, m);
  if (done) done(std::move(outcome), std::move(m));
}

Result<Message> LoopbackNetwork::Send(const std::string& from,
                                      const std::string& to,
                                      const Message& m) {
  return Deliver(from, to, EncodeFrame(m), TypeOf(m));
}

Result<Message> LoopbackNetwork::Deliver(const std::string& from,
                                         const std::string& to, Bytes frame,
                                         MessageType type) {
  auto it = endpoints_.find(to);
  if (it == endpoints_.end() || it->second == nullptr)
    return Error{Errc::kUnavailable, "no endpoint '" + to + "'"};

  // Single-writer context (the merge pass, or serial code): all bookkeeping
  // below — counter cache creation, stream registration, fault decisions,
  // trace emits — happens in a globally deterministic order.
  LinkCells& link = Cells(from, to);
  link.bytes_sent->Inc(frame.size());

  // The request record is counted BEFORE fault injection, as the socket
  // path counts a record it framed and validated; corruption below then
  // mangles the SOR5 envelope, as a flipped byte inside a validated record
  // would.
  CountStreamLeg(frame.size());

  const SimTime now = clock_ != nullptr ? clock_->now() : SimTime{};
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  auto trace = [&](obs::EventKind kind, std::uint64_t b = 0,
                   std::uint64_t c = 0) {
    if (tracing) tracer_->Emit(link.from_stream, now, kind, link.to_stream, b, c);
  };
  trace(obs::EventKind::kMsgSend, frame.size(),
        static_cast<std::uint64_t>(type));

  // Node fault domain: a down destination loses the frame before its
  // handler runs. A pure state check — no randomness consumed — so arming
  // node faults never shifts the link-fault schedule.
  if (faults_.NodeDown(to, now)) {
    link.node_unreachable->Inc();
    trace(obs::EventKind::kNodeUnreachable);
    return Error{Errc::kUnavailable, "node '" + to + "' is down"};
  }

  // --- request leg ---------------------------------------------------------
  const FaultDecision req =
      faults_.Decide(from, to, Direction::kRequest, now);
  if (req.latency.ms > 0) {
    link.latency_injected_ms->Inc(static_cast<std::uint64_t>(req.latency.ms));
    trace(obs::EventKind::kFaultLatency,
          static_cast<std::uint64_t>(req.latency.ms), 0);
  }
  if (req.drop) {
    link.dropped->Inc();
    trace(obs::EventKind::kMsgDropped, req.partitioned ? 1 : 0);
    if (req.partitioned) {
      link.partitioned->Inc();
      return Error{Errc::kUnavailable,
                   "link to '" + to + "' is partitioned"};
    }
    return Error{Errc::kTimeout, "request to '" + to + "' lost in transit"};
  }
  if (req.corrupt && !frame.empty()) {
    // A corrupted request reaches the handler but fails its CRC there; the
    // send is accounted as corrupted, *not* delivered.
    link.corrupted->Inc();
    trace(obs::EventKind::kMsgCorrupted);
    frame[frame.size() / 2] ^= 0x5a;  // flip bits mid-frame
  } else {
    link.delivered->Inc();
    trace(obs::EventKind::kMsgDelivered);
  }

  // Duplicate delivery: the handler runs twice on the same frame — the
  // at-least-once case idempotent endpoints must absorb. The reply to the
  // *last* delivery is what travels back.
  Bytes response = it->second->HandleFrame(frame);
  if (req.duplicate) {
    link.duplicated->Inc();
    trace(obs::EventKind::kMsgDuplicated);
    response = it->second->HandleFrame(frame);
  }

  // The response record is counted on the handler's clean reply.
  CountStreamLeg(response.size());

  // --- response leg --------------------------------------------------------
  const FaultDecision resp =
      faults_.Decide(from, to, Direction::kResponse, now);
  if (resp.latency.ms > 0) {
    link.latency_injected_ms->Inc(static_cast<std::uint64_t>(resp.latency.ms));
    trace(obs::EventKind::kFaultLatency,
          static_cast<std::uint64_t>(resp.latency.ms), 1);
  }
  if (resp.drop) {
    // The handler DID run; only the reply is gone. To the sender this is
    // indistinguishable from a dropped request — exactly the lost-Ack
    // ambiguity that forces retries to be idempotent.
    link.responses_dropped->Inc();
    trace(obs::EventKind::kMsgRespDropped, resp.partitioned ? 1 : 0);
    if (resp.partitioned) {
      link.partitioned->Inc();
      return Error{Errc::kUnavailable,
                   "link to '" + to + "' is partitioned"};
    }
    return Error{Errc::kTimeout,
                 "reply from '" + to + "' lost in transit"};
  }
  if (resp.corrupt && !response.empty()) {
    link.responses_corrupted->Inc();
    trace(obs::EventKind::kMsgRespCorrupted);
    response[response.size() / 2] ^= 0x5a;
  }
  link.bytes_received->Inc(response.size());

  Result<Message> decoded = DecodeFrame(response);
  if (!decoded.ok()) return decoded.error();
  // Surface remote errors as local errors for ergonomic call sites.
  if (const auto* err = std::get_if<ErrorReply>(&decoded.value())) {
    return Error{static_cast<Errc>(err->code), err->message};
  }
  return decoded;
}

}  // namespace sor::net
