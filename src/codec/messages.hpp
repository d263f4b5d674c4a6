// SOR wire messages.
//
// The paper (§II) describes five interactions between the mobile frontend
// and the sensing server, all carried as opaque binary HTTP bodies:
//   1. participation request (triggered by a 2D-barcode scan),
//   2. schedule + Lua-script distribution to the phone,
//   3. sensed-data upload (stored as a raw blob, decoded later by the
//      Data Processor),
//   4. leave notification (Participation Manager flips status to finished),
//   5. ping via a Google Cloud Messaging server when the server loses track
//      of a phone.
// Each message type below has a deterministic binary encoding built on
// ByteWriter/ByteReader, plus a framed envelope with magic, version and a
// CRC-32 so transport corruption is detected before dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "codec/bytes.hpp"
#include "common/geo.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/sensor_kind.hpp"
#include "common/sim_time.hpp"

namespace sor {

// One raw-data record: the 3-tuple (t, Δt, d) of §IV-A. SOR takes multiple
// readings within [t, t+Δt] "to ensure high sensing quality"; `values` holds
// them. GPS batches additionally carry full fixes in `locations`.
struct ReadingTuple {
  SensorKind kind = SensorKind::kAccelerometer;
  SimTime t;
  SimDuration dt;
  std::vector<double> values;
  std::vector<GeoPoint> locations;  // non-empty only for kGps

  friend bool operator==(const ReadingTuple&, const ReadingTuple&) = default;
};

struct ParticipationRequest {
  UserId user;
  Token token;
  AppId app;
  GeoPoint location;   // where the phone claims to be (for verification)
  int budget = 0;      // N^B_k: max acquisitions this user is willing to do
  SimTime scan_time;   // when the barcode was scanned
  // Install generation of the requesting phone. A crashed phone that
  // restarts rejoins with the SAME incarnation and gets its existing task
  // back (seq space continues, the dedup index stays valid). An
  // uninstall/reinstall bumps the incarnation: the server must finish the
  // old participation and issue a FRESH task, because the reinstalled phone
  // restarts its upload seq at 1 and the old task's dedup index would
  // silently swallow every new upload.
  std::uint32_t incarnation = 1;

  friend bool operator==(const ParticipationRequest&,
                         const ParticipationRequest&) = default;
};

struct ParticipationReply {
  TaskId task;          // valid only if accepted
  bool accepted = false;
  std::string reason;   // human-readable rejection reason

  friend bool operator==(const ParticipationReply&,
                         const ParticipationReply&) = default;
};

struct ScheduleDistribution {
  TaskId task;
  AppId app;
  std::string script;              // SenseScript source (the paper's Lua)
  std::vector<SimTime> instants;   // Φ_k: when this phone should sense
  SimDuration sample_window;       // Δt per acquisition
  int samples_per_window = 1;      // readings taken within [t, t+Δt]
  // The script's statically derived sensor manifest. A phone missing any of
  // these refuses the task up front (ErrorReply kUnsupported) instead of
  // discovering mid-campaign that every acquisition comes back empty.
  std::vector<SensorKind> required_sensors;
  // Encoded information-flow manifest (analysis::EncodeFlowManifest): for
  // every acquisition/print/return site, the sensor kinds whose data flows
  // into the value leaving the phone there. Empty = no sites (or a server
  // predating the flow pass).
  std::string flow_manifest;

  friend bool operator==(const ScheduleDistribution&,
                         const ScheduleDistribution&) = default;
};

struct SensedDataUpload {
  TaskId task;
  UserId user;
  std::vector<ReadingTuple> batches;
  // Monotonically increasing per-phone sequence number. Retries after a
  // lost Ack re-send the same seq; the server deduplicates on (task, seq)
  // so at-least-once delivery never double-inserts raw rows or
  // double-consumes budget. 0 means "no seq" (legacy sender, not deduped).
  std::uint64_t seq = 0;

  friend bool operator==(const SensedDataUpload&,
                         const SensedDataUpload&) = default;
};

struct LeaveNotification {
  TaskId task;
  UserId user;
  SimTime time;
  friend bool operator==(const LeaveNotification&,
                         const LeaveNotification&) = default;
};

struct Ping {
  PhoneId phone;
  friend bool operator==(const Ping&, const Ping&) = default;
};

struct PingReply {
  PhoneId phone;
  GeoPoint location;
  SimTime time;
  friend bool operator==(const PingReply&, const PingReply&) = default;
};

struct Ack {
  std::uint64_t in_reply_to = 0;
  // Echo of SensedDataUpload::seq. A phone treats an upload as settled only
  // when the Ack echoes the seq it sent; 0 acknowledges a legacy (unseq'd)
  // message.
  std::uint64_t seq = 0;
  friend bool operator==(const Ack&, const Ack&) = default;
};

struct ErrorReply {
  std::uint8_t code = 0;  // Errc numeric value
  std::string message;
  friend bool operator==(const ErrorReply&, const ErrorReply&) = default;
};

// Backpressure hint (docs/robustness.md): the server shed this upload
// instead of storing it. Unlike an ErrorReply, a throttle is not a failure
// — the phone keeps the upload queued and re-attempts it no sooner than
// `retry_after` from receipt, without consuming its retry budget. `mode`
// carries the server's degradation-ladder mode (server::ServerMode) so the
// phone can pace ALL traffic, not just the shed upload, when the server is
// deep in overload.
struct ThrottleReply {
  std::uint64_t in_reply_to = 0;  // task id of the shed upload
  std::uint64_t seq = 0;          // echo of the shed upload's seq
  SimDuration retry_after{0};
  std::uint8_t mode = 0;
  friend bool operator==(const ThrottleReply&, const ThrottleReply&) = default;
};

// Alternatives in MessageType order: TypeOf is the index plus one.
using Message =
    std::variant<ParticipationRequest, ParticipationReply,
                 ScheduleDistribution, SensedDataUpload, LeaveNotification,
                 Ping, PingReply, Ack, ErrorReply, ThrottleReply>;

enum class MessageType : std::uint8_t {
  kParticipationRequest = 1,
  kParticipationReply = 2,
  kScheduleDistribution = 3,
  kSensedDataUpload = 4,
  kLeaveNotification = 5,
  kPing = 6,
  kPingReply = 7,
  kAck = 8,
  kErrorReply = 9,
  kThrottleReply = 10,
};

[[nodiscard]] MessageType TypeOf(const Message& m);
[[nodiscard]] const char* to_string(MessageType t);

// Body-only encoders (used by the envelope and by the database raw-blob
// column, which stores upload bodies exactly as received — §II-B).
void EncodeBody(const Message& m, ByteWriter& w);
[[nodiscard]] Result<Message> DecodeBody(MessageType type,
                                         std::span<const std::uint8_t> body);

// The one upload-body decoder (DecodeBody's upload case calls it): fills a
// caller-owned `out`, reusing the storage of its batches and their vectors,
// so a loop decoding many stored blobs into one upload allocates only when
// a blob is larger than every one before it. On failure `out` holds a
// partial decode and must not be used.
[[nodiscard]] Status DecodeUploadBody(std::span<const std::uint8_t> body,
                                      SensedDataUpload& out);

// Framed envelope: magic "SOR5" | type u8 | body varint-len+bytes | crc32 of
// everything before it. This is the unit handed to the transport. The magic
// doubles as the wire version; it was bumped from "SOR1" when seq fields
// were added to SensedDataUpload and Ack, from "SOR2" when
// ScheduleDistribution grew the required-sensor manifest, from "SOR3"
// when ThrottleReply and ParticipationRequest::incarnation were added for
// overload control and churn survival, and from "SOR4" when
// ScheduleDistribution grew the information-flow manifest.
[[nodiscard]] Bytes EncodeFrame(const Message& m);
[[nodiscard]] Result<Message> DecodeFrame(std::span<const std::uint8_t> frame);

// A frame whose envelope checked out (length, CRC, magic, type): its
// message type and a view of its body inside the frame's own bytes.
struct FrameView {
  MessageType type;
  std::span<const std::uint8_t> body;
};
// Validate the envelope without decoding or copying the body; DecodeFrame
// is SplitFrame followed by DecodeBody. The view lives as long as `frame`.
[[nodiscard]] Result<FrameView> SplitFrame(
    std::span<const std::uint8_t> frame);

// Reading-batch (de)serialization is also used standalone by the Data
// Processor's persisted accumulator state.
void EncodeReadingTuple(const ReadingTuple& r, ByteWriter& w);
[[nodiscard]] ReadingTuple DecodeReadingTuple(ByteReader& r);

}  // namespace sor
