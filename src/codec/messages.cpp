#include "codec/messages.hpp"

#include <cassert>
#include <utility>

#include "codec/crc32.hpp"

namespace sor {

namespace {

// "SOR5" little-endian. Bumped from "SOR1" (0x31524F53) when seq fields were
// added to SensedDataUpload and Ack, from "SOR2" (0x32524F53) when
// ScheduleDistribution grew the required-sensor manifest, from "SOR3"
// (0x33524F53) when ThrottleReply and ParticipationRequest::incarnation were
// added for overload control, and from "SOR4" (0x34524F53) when
// ScheduleDistribution grew the information-flow manifest; old frames fail
// the magic check rather than being mis-decoded positionally.
constexpr std::uint32_t kMagic = 0x35524F53;  // "SOR5"

// Counts what a ByteWriter would write, so EncodeFrame can size its buffer
// before it encodes the body into it.
struct ByteCounter {
  std::size_t n = 0;
  void u8(std::uint8_t) { ++n; }
  void boolean(bool) { ++n; }
  void f64(double) { n += 8; }
  void varint(std::uint64_t v) {
    for (++n; v >= 0x80; v >>= 7) ++n;
  }
  void svarint(std::int64_t v) { varint(ZigZag(v)); }
  void str(std::string_view s) {
    varint(s.size());
    n += s.size();
  }
};

template <typename W>
void EncodeGeo(const GeoPoint& p, W& w) {
  w.f64(p.lat_deg);
  w.f64(p.lon_deg);
  w.f64(p.alt_m);
}

GeoPoint DecodeGeo(ByteReader& r) {
  GeoPoint p;
  p.lat_deg = r.f64();
  p.lon_deg = r.f64();
  p.alt_m = r.f64();
  return p;
}

template <typename W>
void EncodeTime(SimTime t, W& w) { w.svarint(t.ms); }
SimTime DecodeTime(ByteReader& r) { return SimTime{r.svarint()}; }

// A field narrower than its wire integer: out of its range, the decode
// fails rather than narrow to a value that re-encodes differently.
template <typename T, typename Wire>
T Narrow(Wire v, ByteReader& r) {
  if (!std::in_range<T>(v)) r.invalidate();
  return static_cast<T>(v);
}

template <typename W>
void EncodeTuple(const ReadingTuple& t, W& w) {
  w.u8(static_cast<std::uint8_t>(t.kind));
  EncodeTime(t.t, w);
  w.svarint(t.dt.ms);
  w.varint(t.values.size());
  for (double v : t.values) w.f64(v);
  w.varint(t.locations.size());
  for (const GeoPoint& p : t.locations) EncodeGeo(p, w);
}

// Decode one tuple into `t`, overwriting every field and reusing the
// capacity of its vectors.
void DecodeReadingTupleInto(ByteReader& r, ReadingTuple& t) {
  t.values.clear();
  t.locations.clear();
  const std::uint8_t kind = r.u8();
  if (kind >= static_cast<std::uint8_t>(SensorKind::kCount)) {
    // Unknown sensor kinds must fail the whole decode rather than be
    // silently coerced to a valid one.
    r.invalidate();
    return;
  }
  t.kind = static_cast<SensorKind>(kind);
  t.t = DecodeTime(r);
  t.dt = SimDuration{r.svarint()};
  // Length sanity (and no huge alloc): a count the bytes left cannot hold
  // fails the decode instead of reading on from the wrong offset. Each run
  // of doubles is bounds-checked once, not per double.
  const F64Run values = r.f64s(r.varint());
  t.values.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) t.values[i] = values[i];
  const std::uint64_t nl = r.varint();
  if (nl > r.remaining() / 24) r.invalidate();  // also keeps 3 * nl in range
  const F64Run fixes = r.f64s(3 * nl);
  t.locations.resize(fixes.size() / 3);
  for (std::size_t i = 0; i < t.locations.size(); ++i)
    t.locations[i] = {fixes[3 * i], fixes[3 * i + 1], fixes[3 * i + 2]};
}

}  // namespace

void EncodeReadingTuple(const ReadingTuple& t, ByteWriter& w) {
  EncodeTuple(t, w);
}

ReadingTuple DecodeReadingTuple(ByteReader& r) {
  ReadingTuple t;
  DecodeReadingTupleInto(r, t);
  return t;
}

Status DecodeUploadBody(std::span<const std::uint8_t> body,
                        SensedDataUpload& out) {
  ByteReader r(body);
  out.task = TaskId{r.varint()};
  out.user = UserId{r.varint()};
  out.seq = r.varint();
  const std::uint64_t n = r.varint();
  if (n > r.remaining() + 1) return Error{Errc::kDecodeError, "bad count"};
  std::size_t used = 0;
  for (; used < n && r.ok(); ++used) {
    if (used == out.batches.size()) out.batches.emplace_back();
    DecodeReadingTupleInto(r, out.batches[used]);
  }
  out.batches.resize(used);
  return r.finish();
}

static_assert(std::variant_size_v<Message> ==
              static_cast<std::size_t>(MessageType::kThrottleReply));

MessageType TypeOf(const Message& m) {
  return static_cast<MessageType>(m.index() + 1);
}

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::kParticipationRequest: return "participation_request";
    case MessageType::kParticipationReply: return "participation_reply";
    case MessageType::kScheduleDistribution: return "schedule_distribution";
    case MessageType::kSensedDataUpload: return "sensed_data_upload";
    case MessageType::kLeaveNotification: return "leave_notification";
    case MessageType::kPing: return "ping";
    case MessageType::kPingReply: return "ping_reply";
    case MessageType::kAck: return "ack";
    case MessageType::kErrorReply: return "error_reply";
    case MessageType::kThrottleReply: return "throttle_reply";
  }
  return "unknown";
}

namespace {

template <typename W>
void EncodeBodyTo(const Message& m, W& w) {
  struct Visitor {
    W& w;
    void operator()(const ParticipationRequest& r) const {
      w.varint(r.user.value());
      w.str(r.token.value);
      w.varint(r.app.value());
      EncodeGeo(r.location, w);
      w.svarint(r.budget);
      EncodeTime(r.scan_time, w);
      w.varint(r.incarnation);
    }
    void operator()(const ParticipationReply& r) const {
      w.varint(r.task.value());
      w.boolean(r.accepted);
      w.str(r.reason);
    }
    void operator()(const ScheduleDistribution& s) const {
      w.varint(s.task.value());
      w.varint(s.app.value());
      w.str(s.script);
      w.varint(s.instants.size());
      // Delta-encode instants: schedules are sorted, deltas are small.
      std::int64_t prev = 0;
      for (SimTime t : s.instants) {
        w.svarint(t.ms - prev);
        prev = t.ms;
      }
      w.svarint(s.sample_window.ms);
      w.svarint(s.samples_per_window);
      w.varint(s.required_sensors.size());
      for (SensorKind k : s.required_sensors)
        w.u8(static_cast<std::uint8_t>(k));
      w.str(s.flow_manifest);
    }
    void operator()(const SensedDataUpload& u) const {
      w.varint(u.task.value());
      w.varint(u.user.value());
      w.varint(u.seq);
      w.varint(u.batches.size());
      for (const ReadingTuple& b : u.batches) EncodeTuple(b, w);
    }
    void operator()(const LeaveNotification& l) const {
      w.varint(l.task.value());
      w.varint(l.user.value());
      EncodeTime(l.time, w);
    }
    void operator()(const Ping& p) const { w.varint(p.phone.value()); }
    void operator()(const PingReply& p) const {
      w.varint(p.phone.value());
      EncodeGeo(p.location, w);
      EncodeTime(p.time, w);
    }
    void operator()(const Ack& a) const {
      w.varint(a.in_reply_to);
      w.varint(a.seq);
    }
    void operator()(const ErrorReply& e) const {
      w.u8(e.code);
      w.str(e.message);
    }
    void operator()(const ThrottleReply& t) const {
      w.varint(t.in_reply_to);
      w.varint(t.seq);
      w.svarint(t.retry_after.ms);
      w.u8(t.mode);
    }
  };
  std::visit(Visitor{w}, m);
}

}  // namespace

void EncodeBody(const Message& m, ByteWriter& w) { EncodeBodyTo(m, w); }

Result<Message> DecodeBody(MessageType type,
                           std::span<const std::uint8_t> body) {
  ByteReader r(body);
  Message out = Ack{};
  switch (type) {
    case MessageType::kParticipationRequest: {
      ParticipationRequest m;
      m.user = UserId{r.varint()};
      m.token = Token{r.str()};
      m.app = AppId{r.varint()};
      m.location = DecodeGeo(r);
      m.budget = Narrow<int>(r.svarint(), r);
      m.scan_time = DecodeTime(r);
      m.incarnation = Narrow<std::uint32_t>(r.varint(), r);
      out = std::move(m);
      break;
    }
    case MessageType::kParticipationReply: {
      ParticipationReply m;
      m.task = TaskId{r.varint()};
      m.accepted = r.boolean();
      m.reason = r.str();
      out = std::move(m);
      break;
    }
    case MessageType::kScheduleDistribution: {
      ScheduleDistribution m;
      m.task = TaskId{r.varint()};
      m.app = AppId{r.varint()};
      m.script = r.str();
      const std::uint64_t n = r.varint();
      if (n > r.remaining() + 1) return Error{Errc::kDecodeError, "bad count"};
      std::int64_t prev = 0;
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        // An instant past the int64 range has no delta to re-encode it.
        if (__builtin_add_overflow(prev, r.svarint(), &prev)) r.invalidate();
        m.instants.push_back(SimTime{prev});
      }
      m.sample_window = SimDuration{r.svarint()};
      m.samples_per_window = Narrow<int>(r.svarint(), r);
      const std::uint64_t n_sensors = r.varint();
      if (n_sensors > r.remaining() + 1)
        return Error{Errc::kDecodeError, "bad count"};
      for (std::uint64_t i = 0; i < n_sensors && r.ok(); ++i) {
        const std::uint8_t raw = r.u8();
        if (raw >= static_cast<std::uint8_t>(SensorKind::kCount))
          return Error{Errc::kDecodeError, "unknown sensor kind"};
        m.required_sensors.push_back(static_cast<SensorKind>(raw));
      }
      m.flow_manifest = r.str();
      out = std::move(m);
      break;
    }
    case MessageType::kSensedDataUpload: {
      // Its own reader: the upload decoder checks the whole body.
      SensedDataUpload m;
      if (Status s = DecodeUploadBody(body, m); !s.ok()) return s.error();
      return Message{std::move(m)};
    }
    case MessageType::kLeaveNotification: {
      LeaveNotification m;
      m.task = TaskId{r.varint()};
      m.user = UserId{r.varint()};
      m.time = DecodeTime(r);
      out = std::move(m);
      break;
    }
    case MessageType::kPing: {
      out = Ping{PhoneId{r.varint()}};
      break;
    }
    case MessageType::kPingReply: {
      PingReply m;
      m.phone = PhoneId{r.varint()};
      m.location = DecodeGeo(r);
      m.time = DecodeTime(r);
      out = std::move(m);
      break;
    }
    case MessageType::kAck: {
      Ack m;
      m.in_reply_to = r.varint();
      m.seq = r.varint();
      out = std::move(m);
      break;
    }
    case MessageType::kErrorReply: {
      ErrorReply m;
      m.code = r.u8();
      m.message = r.str();
      out = std::move(m);
      break;
    }
    case MessageType::kThrottleReply: {
      ThrottleReply m;
      m.in_reply_to = r.varint();
      m.seq = r.varint();
      m.retry_after = SimDuration{r.svarint()};
      m.mode = r.u8();
      out = std::move(m);
      break;
    }
    default:
      return Error{Errc::kDecodeError, "unknown message type"};
  }
  if (Status s = r.finish(); !s.ok()) return s.error();
  return out;
}

Bytes EncodeFrame(const Message& m) {
  // Size the frame first, then write the body straight into it: one
  // allocation, and the body bytes are written once.
  ByteCounter body;
  EncodeBodyTo(m, body);
  ByteCounter length;
  length.varint(body.n);
  const std::size_t size = 4 + 1 + length.n + body.n + 4;

  ByteWriter frame(size);
  frame.u32_fixed(kMagic);
  frame.u8(static_cast<std::uint8_t>(TypeOf(m)));
  frame.varint(body.n);
  EncodeBodyTo(m, frame);
  frame.u32_fixed(Crc32(frame.bytes()));
  assert(frame.size() == size);
  return frame.take();
}

Result<FrameView> SplitFrame(std::span<const std::uint8_t> frame) {
  if (frame.size() < 9) return Error{Errc::kDecodeError, "frame too short"};
  // CRC covers everything except the trailing 4 bytes.
  const auto payload = frame.first(frame.size() - 4);
  ByteReader tail(frame.subspan(frame.size() - 4));
  const std::uint32_t want = tail.u32_fixed();
  if (Crc32(payload) != want)
    return Error{Errc::kDecodeError, "crc mismatch"};

  ByteReader r(payload);
  if (r.u32_fixed() != kMagic)
    return Error{Errc::kDecodeError, "bad magic"};
  const std::uint8_t type_raw = r.u8();
  const std::span<const std::uint8_t> body = r.blob_view();
  if (!r.ok() || !r.at_end())
    return Error{Errc::kDecodeError, "malformed frame"};
  if (type_raw < 1 ||
      type_raw > static_cast<std::uint8_t>(MessageType::kThrottleReply))
    return Error{Errc::kDecodeError, "unknown message type"};
  return FrameView{static_cast<MessageType>(type_raw), body};
}

Result<Message> DecodeFrame(std::span<const std::uint8_t> frame) {
  Result<FrameView> view = SplitFrame(frame);
  if (!view.ok()) return view.error();
  return DecodeBody(view.value().type, view.value().body);
}

}  // namespace sor
