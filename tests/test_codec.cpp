// Unit tests for the binary codec: byte primitives, CRC-32, message
// round-trips, frame integrity and malformed-input rejection (including a
// deterministic fuzz sweep — a corrupted frame must never decode).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <variant>

#include "codec/bytes.hpp"
#include "codec/crc32.hpp"
#include "codec/messages.hpp"
#include "codec/reed_solomon.hpp"
#include "common/rng.hpp"

namespace sor {
namespace {

// --- byte primitives ---------------------------------------------------------

TEST(Bytes, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,      1,        127,       128,
                                 16'383, 16'384,   1u << 21,  1ull << 42,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : cases) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.finish().ok());
  }
}

TEST(Bytes, SignedVarintRoundTrip) {
  const std::int64_t cases[] = {0,  1,  -1, 63, -64, 1'000'000, -1'000'000,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : cases) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.svarint(), v);
    EXPECT_TRUE(r.finish().ok());
  }
}

TEST(Bytes, ZigzagSmallMagnitudesStaySmall) {
  ByteWriter w;
  w.svarint(-1);
  EXPECT_EQ(w.size(), 1u);  // -1 encodes to a single byte (zigzag: 1)
}

TEST(Bytes, DoubleRoundTrip) {
  const double cases[] = {0.0, -0.0, 1.5, -273.15, 1e300, -1e-300,
                          std::numeric_limits<double>::infinity()};
  for (double v : cases) {
    ByteWriter w;
    w.f64(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.f64(), v);
  }
}

TEST(Bytes, NanRoundTrip) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::quiet_NaN());
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(Bytes, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.str("hello sensing");
  w.str("");
  const Bytes blob = {0x00, 0xff, 0x7f, 0x80};
  w.blob(blob);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello sensing");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.blob(), blob);
  EXPECT_TRUE(r.finish().ok());
}

TEST(Bytes, TruncatedReadsFailAndStick) {
  ByteWriter w;
  w.u32_fixed(0xDEADBEEF);
  Bytes data = w.bytes();
  data.pop_back();
  ByteReader r(data);
  (void)r.u32_fixed();
  EXPECT_FALSE(r.ok());
  // Subsequent reads stay failed and return zero values.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_FALSE(r.finish().ok());
}

TEST(Bytes, OversizedLengthPrefixRejected) {
  ByteWriter w;
  w.varint(1'000'000);  // claims a million bytes...
  w.u8('x');            // ...but provides one
  ByteReader r(w.bytes());
  (void)r.str();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, TrailingBytesRejectedByFinish) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.bytes());
  (void)r.u8();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.finish().ok());  // one byte left over
}

TEST(Bytes, OverlongVarintRejected) {
  // 11 continuation bytes exceed a 64-bit varint.
  Bytes data(11, 0x80);
  ByteReader r(data);
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

// --- CRC-32 ---------------------------------------------------------------

TEST(Crc32, KnownVector) {
  const std::string s = "123456789";
  const Bytes data(s.begin(), s.end());
  EXPECT_EQ(Crc32(data), 0xCBF43926u);  // standard check value
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32, SensitiveToEveryByte) {
  Bytes data = {1, 2, 3, 4, 5};
  const std::uint32_t base = Crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    Bytes mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32(mutated), base) << "byte " << i;
  }
}

// The textbook byte-at-a-time CRC-32, kept here as the reference the
// slice-by-8 Crc32 must match bit for bit.
std::uint32_t ReferenceCrc32(std::span<const std::uint8_t> data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : data) crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..1024 at every start offset 0..7, so each split between
  // the 8-byte main loop and the byte-wise tail, and every alignment of
  // the word loads, is covered.
  Rng rng(20241017);
  Bytes buf(1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto data = all.subspan(offset, len);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Bytes, FixedWidthFieldsAreLittleEndian) {
  ByteWriter w;
  w.u32_fixed(0x04030201u);
  w.u64_fixed(0x0c0b0a0908070605ull);
  const Bytes want = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(w.bytes(), want);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32_fixed(), 0x04030201u);
  EXPECT_EQ(r.u64_fixed(), 0x0c0b0a0908070605ull);
  EXPECT_TRUE(r.finish().ok());
}

TEST(Bytes, TruncatedFixedWidthReadsFailAndStick) {
  const Bytes three = {1, 2, 3};
  ByteReader r32(three);
  EXPECT_EQ(r32.u32_fixed(), 0u);
  EXPECT_FALSE(r32.ok());
  EXPECT_EQ(r32.u8(), 0u);  // sticks
  const Bytes seven = {1, 2, 3, 4, 5, 6, 7};
  ByteReader r64(seven);
  EXPECT_EQ(r64.u64_fixed(), 0u);
  EXPECT_FALSE(r64.ok());
}

TEST(Bytes, BlobViewPointsIntoTheInput) {
  ByteWriter w;
  w.blob(Bytes{7, 8, 9});
  w.u8(42);
  ByteReader r(w.bytes());
  const std::span<const std::uint8_t> view = r.blob_view();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), w.bytes().data() + 1);  // no copy
  EXPECT_EQ(view[2], 9);
  EXPECT_EQ(r.u8(), 42);
  EXPECT_TRUE(r.finish().ok());
}

TEST(Bytes, F64RunIsCheckedOnceAndFailsLikeSingleReads) {
  ByteWriter w;
  for (double v : {1.5, -2.25, 3.0}) w.f64(v);
  w.u8(7);  // 25 bytes: room for 3 doubles, not 4
  {
    ByteReader r(w.bytes());
    const F64Run run = r.f64s(3);
    ASSERT_EQ(run.size(), 3u);
    EXPECT_EQ(run[0], 1.5);
    EXPECT_EQ(run[1], -2.25);
    EXPECT_EQ(run[2], 3.0);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_TRUE(r.finish().ok());
  }
  for (std::uint64_t n : {std::uint64_t{4}, ~std::uint64_t{0}}) {
    ByteReader r(w.bytes());
    EXPECT_EQ(r.f64s(n).size(), 0u) << n;
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0);  // the failure sticks
  }
}

// --- message round-trips -----------------------------------------------------

Message SampleParticipation() {
  ParticipationRequest req;
  req.user = UserId{42};
  req.token = Token{"tok-42"};
  req.app = AppId{7};
  req.location = GeoPoint{43.05, -76.15, 120.5};
  req.budget = 17;
  req.scan_time = SimTime{123'456};
  req.incarnation = 3;
  return req;
}

Message SampleUpload() {
  SensedDataUpload up;
  up.task = TaskId{9};
  up.user = UserId{42};
  ReadingTuple t1;
  t1.kind = SensorKind::kDroneTemperature;
  t1.t = SimTime{5'000};
  t1.dt = SimDuration{5'000};
  t1.values = {68.2, 68.4, 68.1};
  ReadingTuple t2;
  t2.kind = SensorKind::kGps;
  t2.t = SimTime{6'000};
  t2.dt = SimDuration{300'000};
  t2.values = {150.0, 151.0};
  t2.locations = {{43.05, -76.15, 150.0}, {43.051, -76.149, 151.0}};
  up.batches = {t1, t2};
  return up;
}

std::vector<Message> AllSampleMessages() {
  return {
      SampleParticipation(),
      ParticipationReply{TaskId{3}, true, ""},
      ParticipationReply{TaskId{}, false, "not in target place"},
      ScheduleDistribution{TaskId{3}, AppId{7}, "local x = 1",
                           {SimTime{10'000}, SimTime{20'000}, SimTime{35'000}},
                           SimDuration{5'000}, 5,
                           {SensorKind::kGps, SensorKind::kBarometer},
                           "acquire@2=gps;print@4=barometer,gps"},
      SampleUpload(),
      LeaveNotification{TaskId{3}, UserId{42}, SimTime{99'000}},
      Ping{PhoneId{5}},
      PingReply{PhoneId{5}, GeoPoint{43.0, -76.0, 0}, SimTime{88'000}},
      Ack{12345},
      ErrorReply{3, "bad things"},
      ThrottleReply{TaskId{3}.value(), 17, SimDuration{45'000}, 2},
  };
}

TEST(Messages, FrameRoundTripAllTypes) {
  for (const Message& m : AllSampleMessages()) {
    const Bytes frame = EncodeFrame(m);
    Result<Message> decoded = DecodeFrame(frame);
    ASSERT_TRUE(decoded.ok())
        << to_string(TypeOf(m)) << ": " << decoded.error().str();
    EXPECT_EQ(TypeOf(decoded.value()), TypeOf(m));
    EXPECT_TRUE(decoded.value() == m) << to_string(TypeOf(m));
  }
}

TEST(Messages, ScheduleInstantsDeltaEncodingPreservesOrder) {
  ScheduleDistribution s;
  s.task = TaskId{1};
  s.app = AppId{1};
  s.script = "x = 1";
  for (int i = 0; i < 100; ++i) s.instants.push_back(SimTime{i * 10'000});
  s.sample_window = SimDuration{2'000};
  s.samples_per_window = 3;
  Result<Message> decoded = DecodeFrame(EncodeFrame(s));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<ScheduleDistribution>(decoded.value()) == s);
}

TEST(Messages, SplitFrameReturnsTheBodyInPlace) {
  for (const Message& m : AllSampleMessages()) {
    const Bytes frame = EncodeFrame(m);
    Result<FrameView> view = SplitFrame(frame);
    ASSERT_TRUE(view.ok()) << to_string(TypeOf(m));
    EXPECT_EQ(view.value().type, TypeOf(m));
    ByteWriter body;
    EncodeBody(m, body);
    EXPECT_TRUE(std::ranges::equal(view.value().body, body.bytes()));
    // The body is a view into the frame: header before it, CRC after.
    EXPECT_GE(view.value().body.data(), frame.data() + 5);
    EXPECT_EQ(view.value().body.data() + view.value().body.size(),
              frame.data() + frame.size() - 4);
  }
}

TEST(Messages, SplitFrameRejectsWhatDecodeFrameRejects) {
  Bytes corrupt = EncodeFrame(SampleUpload());
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_EQ(SplitFrame(corrupt).code(), Errc::kDecodeError);
  Bytes magic = EncodeFrame(Ack{1});
  magic[0] ^= 0xff;
  EXPECT_EQ(SplitFrame(magic).code(), Errc::kDecodeError);
  EXPECT_EQ(SplitFrame(Bytes{1, 2, 3}).code(), Errc::kDecodeError);
}

TEST(Messages, CorruptedFrameRejected) {
  Bytes frame = EncodeFrame(SampleUpload());
  frame[frame.size() / 2] ^= 0x01;
  EXPECT_EQ(DecodeFrame(frame).code(), Errc::kDecodeError);
}

TEST(Messages, TruncatedFrameRejected) {
  Bytes frame = EncodeFrame(SampleParticipation());
  frame.resize(frame.size() - 3);
  EXPECT_EQ(DecodeFrame(frame).code(), Errc::kDecodeError);
}

TEST(Messages, EmptyAndTinyFramesRejected) {
  EXPECT_FALSE(DecodeFrame({}).ok());
  const Bytes tiny = {1, 2, 3};
  EXPECT_FALSE(DecodeFrame(tiny).ok());
}

TEST(Messages, BadMagicRejected) {
  Bytes frame = EncodeFrame(Ack{1});
  frame[0] ^= 0xff;
  EXPECT_FALSE(DecodeFrame(frame).ok());
}

TEST(Messages, UnknownSensorKindInUploadRejected) {
  // Hand-craft an upload body with a sensor kind beyond kCount.
  ByteWriter w;
  w.varint(1);   // task
  w.varint(1);   // user
  w.varint(1);   // one batch
  w.u8(250);     // invalid sensor kind
  Result<Message> decoded =
      DecodeBody(MessageType::kSensedDataUpload, w.bytes());
  EXPECT_EQ(decoded.code(), Errc::kDecodeError);
}

// Upload bodies whose tuple declares more values (or locations) than the
// bytes left could hold. The first, 13 bytes long, used to decode as two
// tuples — the second read from inside the first — and re-encode as 14.
Bytes UploadWithOverlongCount(bool locations) {
  ByteWriter w;
  w.varint(1);  // task
  w.varint(1);  // user
  w.varint(1);  // seq
  w.varint(2);  // two batches
  for (int tuple = 0; tuple < 2; ++tuple) {
    w.u8(0);        // sensor kind
    w.svarint(0);   // t
    w.svarint(0);   // dt
    const bool overlong = tuple == 0;
    w.varint(overlong && !locations ? 127 : 0);  // values
    if (overlong && !locations) continue;        // ... and none follow
    w.varint(overlong ? 127 : 0);                // locations
  }
  return w.take();
}

TEST(Messages, OverlongValueCountInUploadRejected) {
  const Bytes body = UploadWithOverlongCount(/*locations=*/false);
  ASSERT_EQ(body.size(), 13u);
  EXPECT_EQ(DecodeBody(MessageType::kSensedDataUpload, body).code(),
            Errc::kDecodeError);
}

TEST(Messages, OverlongLocationCountInUploadRejected) {
  const Bytes body = UploadWithOverlongCount(/*locations=*/true);
  EXPECT_EQ(DecodeBody(MessageType::kSensedDataUpload, body).code(),
            Errc::kDecodeError);
}

// An upload of one tuple holding `values` readings and `fixes` GPS fixes,
// whose counts claim `extra_values` / `extra_fixes` more than follow.
Bytes UploadWithCounts(int values, int extra_values, int fixes,
                       int extra_fixes) {
  ByteWriter w;
  w.varint(1);  // task
  w.varint(2);  // user
  w.varint(3);  // seq
  w.varint(1);  // one batch
  w.u8(static_cast<std::uint8_t>(SensorKind::kGps));
  w.svarint(1'000);  // t
  w.svarint(500);    // dt
  w.varint(static_cast<std::uint64_t>(values + extra_values));
  for (int i = 0; i < values; ++i) w.f64(100.0 + i);
  w.varint(static_cast<std::uint64_t>(fixes + extra_fixes));
  for (int i = 0; i < fixes; ++i) {
    w.f64(43.0 + 0.001 * i);
    w.f64(-76.0);
    w.f64(150.0 + i);
  }
  return w.take();
}

TEST(Messages, CountsOnePastTheBytesLeftRefused) {
  // Each bad body claims the smallest count its bytes cannot hold. With k
  // readings and no fixes written, the bytes left after the value count
  // are 8k + 1 (the fix count follows), so remaining/8 + 1 = k + 1 values.
  // With m fixes written last, the bytes left after the fix count are 24m,
  // so remaining/24 + 1 = m + 1 fixes. Each is refused, and the body with
  // the exact count decodes.
  struct Case {
    int values, fixes;
    bool extra_value;  // else one extra fix
  };
  SensedDataUpload reused;
  for (const Case& c : {Case{0, 0, true}, Case{1, 0, true}, Case{5, 0, true},
                        Case{0, 0, false}, Case{3, 2, false},
                        Case{0, 4, false}}) {
    SCOPED_TRACE(std::to_string(c.values) + " values, " +
                 std::to_string(c.fixes) + " fixes");
    const Bytes bad = UploadWithCounts(c.values, c.extra_value ? 1 : 0,
                                       c.fixes, c.extra_value ? 0 : 1);
    const Bytes good = UploadWithCounts(c.values, 0, c.fixes, 0);
    EXPECT_EQ(DecodeBody(MessageType::kSensedDataUpload, bad).code(),
              Errc::kDecodeError);
    EXPECT_FALSE(DecodeUploadBody(bad, reused).ok());
    // A good body decoded into the upload a refused one left behind equals
    // a fresh decode.
    ASSERT_TRUE(DecodeUploadBody(good, reused).ok());
    Result<Message> fresh = DecodeBody(MessageType::kSensedDataUpload, good);
    ASSERT_TRUE(fresh.ok()) << fresh.error().str();
    EXPECT_EQ(reused, std::get<SensedDataUpload>(fresh.value()));
    ASSERT_EQ(reused.batches.size(), 1u);
    EXPECT_EQ(reused.batches[0].values.size(),
              static_cast<std::size_t>(c.values));
    EXPECT_EQ(reused.batches[0].locations.size(),
              static_cast<std::size_t>(c.fixes));
  }
}

TEST(Messages, FixCountThatWrapsWhenTripledRefused) {
  // 3 * 6148914691236517206 is 2 modulo 2^64: a decoder that sized the fix
  // run by the tripled count alone would read two doubles and accept.
  ByteWriter w;
  w.varint(1);  // task
  w.varint(2);  // user
  w.varint(3);  // seq
  w.varint(1);  // one batch
  w.u8(static_cast<std::uint8_t>(SensorKind::kGps));
  w.svarint(1'000);  // t
  w.svarint(500);    // dt
  w.varint(0);       // values
  w.varint(6148914691236517206ULL);
  w.f64(43.0);
  w.f64(-76.0);
  EXPECT_EQ(DecodeBody(MessageType::kSensedDataUpload, w.bytes()).code(),
            Errc::kDecodeError);
}

// Deterministic fuzz: flip every single byte of each frame, and also try
// random mutations — decode must fail or produce *some* valid message, but
// never crash. (CRC catches essentially everything.)
TEST(Messages, FuzzSingleByteFlipsNeverDecodeSilently) {
  for (const Message& m : AllSampleMessages()) {
    const Bytes frame = EncodeFrame(m);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      Bytes mutated = frame;
      mutated[i] ^= 0x41;
      Result<Message> decoded = DecodeFrame(mutated);
      EXPECT_FALSE(decoded.ok())
          << "byte " << i << " of " << to_string(TypeOf(m));
    }
  }
}

TEST(Messages, FuzzRandomGarbageNeverCrashes) {
  Rng rng(1234);
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : garbage)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)DecodeFrame(garbage);  // must not crash; result ignored
  }
  SUCCEED();
}

// Non-canonical bodies: each decodes to a value that re-encodes to other
// bytes, so accepting it would let raw_data store bytes no encoder wrote.
TEST(Messages, NonCanonicalBodiesRejected) {
  auto decodes = [](MessageType type, const Bytes& body) {
    return DecodeBody(type, body).ok();
  };
  // Zero-padded varint: 0x87 0x00 is 7 written in two bytes.
  EXPECT_TRUE(decodes(MessageType::kAck, {0x07, 0x03}));
  EXPECT_FALSE(decodes(MessageType::kAck, {0x87, 0x00, 0x03}));
  // A tenth varint byte carrying bits past the 64th.
  Bytes wide(9, 0xff);
  wide.push_back(0x01);
  wide.push_back(0x00);
  EXPECT_TRUE(decodes(MessageType::kAck, wide));
  wide[9] = 0x02;
  EXPECT_FALSE(decodes(MessageType::kAck, wide));
  // A boolean other than 0 or 1.
  EXPECT_TRUE(decodes(MessageType::kParticipationReply, {0x03, 0x01, 0x00}));
  EXPECT_FALSE(decodes(MessageType::kParticipationReply, {0x03, 0x02, 0x00}));

  // Integers past their field's range: budget and samples_per_window are
  // int, incarnation is uint32.
  auto participation = [](std::int64_t budget, std::uint64_t incarnation) {
    ByteWriter w;
    w.varint(42);
    w.str("tok");
    w.varint(7);
    for (int i = 0; i < 3; ++i) w.f64(0.0);
    w.svarint(budget);
    w.svarint(1'000);
    w.varint(incarnation);
    return w.take();
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const MessageType req = MessageType::kParticipationRequest;
  EXPECT_TRUE(decodes(req, participation(kIntMax, kU32Max)));
  EXPECT_TRUE(decodes(req, participation(-kIntMax - 1, 1)));
  EXPECT_FALSE(decodes(req, participation(kIntMax + 1, 1)));
  EXPECT_FALSE(decodes(req, participation(-kIntMax - 2, 1)));
  EXPECT_FALSE(decodes(req, participation(1, kU32Max + 1)));

  auto schedule = [](std::int64_t samples_per_window) {
    ByteWriter w;
    w.varint(3);
    w.varint(7);
    w.str("");
    w.varint(0);  // no instants
    w.svarint(5'000);
    w.svarint(samples_per_window);
    w.varint(0);  // no sensors
    w.str("");
    return w.take();
  };
  const MessageType dist = MessageType::kScheduleDistribution;
  EXPECT_TRUE(decodes(dist, schedule(kIntMax)));
  EXPECT_FALSE(decodes(dist, schedule(kIntMax + 1)));
}

// Seeded mutations of every message type's body: whatever still decodes
// must re-encode to exactly the bytes it was decoded from.
TEST(Messages, AcceptedBodiesReencodeByteIdentically) {
  std::mt19937_64 rng(0xb0d1e5u);
  constexpr std::uint8_t kInteresting[] = {0x00, 0x01, 0x02, 0x7f, 0x80, 0xff};
  auto value = [&] {
    return rng() % 2 == 0 ? kInteresting[rng() % std::size(kInteresting)]
                          : static_cast<std::uint8_t>(rng());
  };
  int accepted = 0;
  for (const Message& m : AllSampleMessages()) {
    ByteWriter w;
    EncodeBody(m, w);
    const Bytes body = w.take();
    for (int round = 0; round < 2'000; ++round) {
      Bytes mutated = body;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < edits; ++k) {
        const std::size_t i =
            mutated.empty() ? 0
                            : static_cast<std::size_t>(rng() % mutated.size());
        switch (rng() % 5) {
          case 0:  // overwrite
            if (!mutated.empty()) mutated[i] = value();
            break;
          case 1:  // insert
            mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(i),
                           value());
            break;
          case 2:  // erase
            if (!mutated.empty())
              mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          case 3:  // continue a varint byte into an inserted one
            if (mutated.empty()) break;
            mutated[i] |= 0x80;
            mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                           value());
            break;
          case 4:  // widen a varint by up to nine continuation bytes
            for (std::uint64_t n = 1 + rng() % 9; n > 0; --n) {
              mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(i),
                             static_cast<std::uint8_t>(rng() | 0x80));
            }
            break;
        }
      }
      const MessageType type = TypeOf(m);
      Result<Message> decoded = DecodeBody(type, mutated);
      if (!decoded.ok()) continue;
      ++accepted;
      ByteWriter again;
      EncodeBody(decoded.value(), again);
      ASSERT_EQ(again.bytes(), mutated)
          << to_string(type) << " round " << round;
    }
  }
  // The sweep must exercise the accepting path, not only rejections.
  EXPECT_GT(accepted, 1'000);
}

// --- Reed–Solomon -------------------------------------------------------------

TEST(ReedSolomon, RoundTripNoErrors) {
  const Bytes data = {1, 2, 3, 4, 5, 250, 0, 7};
  Result<Bytes> enc = RsEncode(data, 8);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value().size(), data.size() + 8);
  // Systematic code: message bytes appear verbatim.
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(enc.value()[i], data[i]);
  Result<Bytes> dec = RsDecode(enc.value(), 8);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), data);
}

TEST(ReedSolomon, CorrectsUpToCapacity) {
  Rng rng(71);
  for (int round = 0; round < 200; ++round) {
    const int len = 10 + static_cast<int>(rng.uniform_int(0, 150));
    Bytes data(static_cast<std::size_t>(len));
    for (auto& b : data)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const int nsym = 16;
    Bytes cw = RsEncode(data, nsym).value();
    // Exactly t = nsym/2 errors at distinct positions.
    std::vector<std::size_t> positions;
    while (positions.size() < 8) {
      const auto pos =
          static_cast<std::size_t>(rng.uniform_int(0, len + nsym - 1));
      if (std::find(positions.begin(), positions.end(), pos) ==
          positions.end())
        positions.push_back(pos);
    }
    for (std::size_t pos : positions) {
      cw[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    Result<Bytes> dec = RsDecode(cw, nsym);
    ASSERT_TRUE(dec.ok()) << "round " << round;
    EXPECT_EQ(dec.value(), data) << "round " << round;
  }
}

TEST(ReedSolomon, BeyondCapacityDetectedOrNeverSilentlyWrongLength) {
  Rng rng(72);
  int clean_failures = 0;
  for (int round = 0; round < 100; ++round) {
    Bytes data(50);
    for (auto& b : data)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    Bytes cw = RsEncode(data, 16).value();
    for (int e = 0; e < 20; ++e) {  // far beyond t = 8
      cw[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cw.size()) - 1))] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    Result<Bytes> dec = RsDecode(cw, 16);
    if (!dec.ok()) ++clean_failures;
    // (An RS code can miscorrect beyond capacity — that is mathematics,
    // not a bug — the barcode's inner CRC catches those.)
  }
  EXPECT_GE(clean_failures, 95);  // overwhelmingly detected
}

TEST(ReedSolomon, RandomGarbageNeverCrashes) {
  Rng rng(73);
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(static_cast<std::size_t>(rng.uniform_int(0, 300)));
    for (auto& b : garbage)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)RsDecode(garbage, 16);  // any outcome but a crash is fine
  }
  SUCCEED();
}

TEST(ReedSolomon, ParameterValidation) {
  const Bytes data(10);
  EXPECT_FALSE(RsEncode(data, 0).ok());
  EXPECT_FALSE(RsEncode(data, 300).ok());
  EXPECT_FALSE(RsEncode(Bytes(250), 16).ok());  // block too long
  EXPECT_FALSE(RsDecode(Bytes(4), 16).ok());    // shorter than parity
}

TEST(Messages, TypeNames) {
  EXPECT_STREQ(to_string(MessageType::kParticipationRequest),
               "participation_request");
  EXPECT_STREQ(to_string(MessageType::kSensedDataUpload),
               "sensed_data_upload");
  EXPECT_STREQ(to_string(MessageType::kThrottleReply), "throttle_reply");
}

TEST(Messages, TypeOfIsTheWireCode) {
  // TypeOf reads the type off the variant's index, so the alternatives must
  // stay in wire-code order.
  EXPECT_EQ(TypeOf(ParticipationRequest{}), MessageType::kParticipationRequest);
  EXPECT_EQ(TypeOf(ParticipationReply{}), MessageType::kParticipationReply);
  EXPECT_EQ(TypeOf(ScheduleDistribution{}),
            MessageType::kScheduleDistribution);
  EXPECT_EQ(TypeOf(SensedDataUpload{}), MessageType::kSensedDataUpload);
  EXPECT_EQ(TypeOf(LeaveNotification{}), MessageType::kLeaveNotification);
  EXPECT_EQ(TypeOf(Ping{}), MessageType::kPing);
  EXPECT_EQ(TypeOf(PingReply{}), MessageType::kPingReply);
  EXPECT_EQ(TypeOf(Ack{}), MessageType::kAck);
  EXPECT_EQ(TypeOf(ErrorReply{}), MessageType::kErrorReply);
  EXPECT_EQ(TypeOf(ThrottleReply{}), MessageType::kThrottleReply);
}

TEST(Messages, LegacySor3FrameRejectedByMagic) {
  // An SOR3 frame differs in layout (no incarnation in
  // participation_request), so it must be refused outright, not decoded
  // positionally.
  Bytes frame = EncodeFrame(SampleParticipation());
  frame[3] = '3';  // "SOR4" -> "SOR3"
  EXPECT_FALSE(DecodeFrame(frame).ok());
}

}  // namespace
}  // namespace sor
