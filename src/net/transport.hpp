// In-process request/response transport.
//
// The SOR prototype speaks HTTP with opaque binary bodies between phones
// and sensing servers (§II-A), plus a Google-Cloud-Messaging detour when a
// server loses track of a phone. This module reproduces the messaging
// boundary without sockets: every participant registers an Endpoint under
// a name; Send() encodes the typed Message into a framed byte buffer,
// "transmits" it (optionally injecting faults), and hands the raw frame to
// the receiver, which decodes, dispatches, and returns a response frame.
//
// Everything crosses this boundary as bytes — no object reaches the
// receiver; SendAsync hands the sent message back only to its own sender —
// so codec bugs, truncation, and corruption behave exactly as they would
// on a real wire. Each message is encoded once and CRC-checked once per
// leg. Faults (see net/fault_injector.hpp) can hit both legs of
// the round trip: a request lost before the handler runs, or a response
// lost *after* it ran — the at-least-once case every endpoint must survive.
//
// Observability: all delivery accounting lives in an obs::MetricsRegistry
// (one labeled counter family per link); TransportStats is a *view* over
// those counters, kept for ergonomic assertions. In process the shared
// transport.* family is computed from frame sizes (see StreamCells), and
// transport.frame_errors moves only on sockets and pipes. An optional
// obs::Tracer records a typed event per delivery outcome on the sender's
// stream.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/messages.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sor::net {

// One addressable party (a sensing server or a phone's message handler).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  // Handle one request frame; return the response frame. Implementations
  // decode with DecodeFrame, dispatch, and encode their reply (an ErrorReply
  // frame when decoding/handling fails) — mirroring an HTTP handler.
  [[nodiscard]] virtual Bytes HandleFrame(
      std::span<const std::uint8_t> frame) = 0;
};

// Read-out view over one link's (or the whole network's) delivery counters.
// The registry owns the live values; this struct is what reads return.
struct TransportStats {
  std::uint64_t delivered = 0;   // request reached the handler intact
  std::uint64_t dropped = 0;     // request lost in transit (never handled)
  std::uint64_t corrupted = 0;   // request delivered with a flipped byte
  std::uint64_t duplicated = 0;  // request delivered twice (handler ran 2×)
  std::uint64_t partitioned = 0; // loss caused by a partition window
  std::uint64_t responses_dropped = 0;    // handler ran, reply lost (lost Ack)
  std::uint64_t responses_corrupted = 0;  // handler ran, reply mangled
  std::uint64_t node_unreachable = 0;     // destination node was down
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t latency_injected_ms = 0;

  friend bool operator==(const TransportStats&,
                         const TransportStats&) = default;
};

// Completion of one asynchronous send: the decoded response, or the error
// the sender would have seen from a synchronous Send(), and the message
// that was sent, handed back so a sender can keep it for a retry without
// copying it.
using SendCallback = std::function<void(Result<Message> reply, Message sent)>;

class LoopbackNetwork {
 public:
  LoopbackNetwork();

  // Register/replace the endpoint reachable under `name`.
  void Register(const std::string& name, Endpoint* endpoint);
  void Unregister(const std::string& name);

  // Synchronous round trip: encode, deliver, decode the response. The
  // three-argument form names the sender so per-link fault rules and stats
  // can see who is talking; the two-argument form sends anonymously (empty
  // source name, matched only by the "*" wildcard).
  [[nodiscard]] Result<Message> Send(const std::string& from,
                                     const std::string& to, const Message& m);
  [[nodiscard]] Result<Message> Send(const std::string& to, const Message& m) {
    return Send(std::string(), to, m);
  }

  // Asynchronous send. Outside an epoch (or from an unranked sender, or
  // during the merge pass itself) this is Send() plus an inline callback —
  // unit tests and serial call sites keep request/response semantics.
  // Inside an epoch's collect phase, a ranked sender's message is encoded
  // NOW (pure per-message CPU, overlapped across shards) and appended to
  // that sender's outbox; delivery, fault decisions, and the callback all
  // happen later, inside MergeEpoch(), in deterministic rank order.
  void SendAsync(const std::string& from, const std::string& to, Message m,
                 SendCallback done);

  // Aggregate view over every link, summed from the registry's counters.
  [[nodiscard]] TransportStats stats() const;
  // One link = one (source, destination) endpoint-name pair. Zero-valued
  // stats for links that never carried a frame.
  [[nodiscard]] TransportStats link_stats(const std::string& from,
                                          const std::string& to) const;
  [[nodiscard]] std::map<std::pair<std::string, std::string>, TransportStats>
  all_link_stats() const;

  FaultInjector& faults() { return faults_; }

  // Clock for time-windowed fault rules (partitions). Without one, rules
  // see time frozen at the epoch. Not owned.
  void set_clock(const SimClock* clock) { clock_ = clock; }

  // Metrics sink. The network owns a private registry by default so
  // standalone use keeps full accounting; pass a shared registry (System
  // does) to fold transport counters into the system-wide export, or
  // nullptr to fall back to the private one. Swapping resets per-link
  // counter caches; prior counts stay in whichever registry received them.
  void set_metrics(obs::MetricsRegistry* registry);
  [[nodiscard]] obs::MetricsRegistry& metrics() { return *registry_; }

  // Event sink; nullptr (default) disables transport tracing. Streams are
  // registered per endpoint name on first use from a deterministic context
  // (the merge pass or serial code), so ids are deterministic whenever
  // senders are deterministic.
  void set_tracer(obs::Tracer* tracer);

  // --- epoch-based two-phase delivery (docs/runtime.md) -------------------
  // A tick is two phases. Phase A (collect): every shard runs its phones
  // wait-free; a ranked sender's SendAsync() encodes the frame and appends
  // it to a per-sender outbox — no locks, no gates, no cross-shard waits.
  // Phase B (merge): after the executor's barrier, the driver thread calls
  // MergeEpoch(), which delivers every collected message in (sender rank,
  // send order) — exactly the order a serial loop interleaves them — and
  // runs each send's completion callback right after its delivery. Fault
  // decisions, handler invocations, metrics, and trace emits all happen
  // inside the merge, so the whole decision stream is single-writer and
  // byte-identical at any thread count *by construction*.
  //
  //   BeginEpoch(names);              // rank i = names[i]
  //   for each tick:
  //     ... shards tick phones; SendAsync appends to outboxes ...
  //     MergeEpoch();                 // driver thread, after the barrier
  //   EndEpoch();
  //
  // Between merges only the driver thread runs, so synchronous Send() —
  // server pushes into phones, churn rejoins — is always safe there.
  void BeginEpoch(std::vector<std::string> senders);
  void MergeEpoch();
  void EndEpoch();
  [[nodiscard]] bool epoch_active() const { return epoch_.active; }

 private:
  // Cached registry handles + trace stream ids for one (from, to) link.
  // Created in the merge pass (or from serial code), so creation order —
  // and with it metric names and stream ids — is deterministic.
  struct LinkCells {
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* corrupted = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* partitioned = nullptr;
    obs::Counter* responses_dropped = nullptr;
    obs::Counter* responses_corrupted = nullptr;
    obs::Counter* node_unreachable = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* latency_injected_ms = nullptr;
    obs::StreamId from_stream = 0;
    obs::StreamId to_stream = 0;
    bool have_streams = false;
  };

  // One message waiting in an epoch outbox for the merge pass.
  struct EpochEntry {
    std::string to;
    Bytes frame;   // encoded in phase A, on the sender's shard
    Message sent;  // handed back to `done`
    SendCallback done;
  };

  LinkCells& Cells(const std::string& from, const std::string& to);
  static TransportStats ReadCells(const LinkCells& c);

  // The transport.* counter family shared (by name) with the socket
  // transports in src/transport. A loopback delivery crosses no byte
  // stream, so each leg counts the one record codec::AppendFrame would
  // write for its frame (frame size + codec::kFrameOverhead bytes), and
  // byte/frame counts mean the same thing in-process and out-of-process.
  // transport.frame_errors and the daemon-only connection/timeout counters
  // move only on sockets and pipes; they are registered here (at zero) so
  // `sor metrics` always exports the complete transport surface.
  struct StreamCells {
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
  };
  void BindStreamCells();
  // Count one leg's record as both written and read.
  void CountStreamLeg(std::size_t frame_size);

  // The post-encode half of Send(): fault decisions, handler invocation,
  // response leg, accounting. Must run from a deterministic single-writer
  // context (the merge pass or serial code).
  [[nodiscard]] Result<Message> Deliver(const std::string& from,
                                        const std::string& to, Bytes frame,
                                        MessageType type);

  std::map<std::string, Endpoint*> endpoints_;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* registry_ = nullptr;  // never null
  obs::Tracer* tracer_ = nullptr;             // null = no tracing
  std::map<std::pair<std::string, std::string>, LinkCells> links_;
  FaultInjector faults_;
  const SimClock* clock_ = nullptr;

  struct Epoch {
    bool active = false;
    bool merging = false;  // callbacks/handlers may nest immediate sends
    std::map<std::string, std::size_t> rank_of;
    std::vector<std::string> names;  // names[rank] — merge-time sender lookup
    // outbox[rank] is written only by the shard that owns sender `rank`
    // during phase A and read only by the driver during phase B; the
    // executor's barrier orders the two, so no locking is needed anywhere.
    std::vector<std::vector<EpochEntry>> outbox;
  };
  Epoch epoch_;
  obs::Gauge* outbox_depth_ = nullptr;    // messages merged, last epoch
  obs::Counter* epoch_merges_ = nullptr;  // MergeEpoch calls
  StreamCells stream_;
};

}  // namespace sor::net
