// Tests for the wire codec and message serialization: round trips for
// every message type, malformed-input rejection, frame/CRC validation, and
// randomized robustness (no decode path may crash or over-allocate on
// corrupted bytes).

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "wire/codec.h"
#include "wire/serialization.h"

namespace helios::wire {
namespace {

TEST(CodecTest, VarintRoundTrip) {
  Buffer buf;
  Writer w(&buf);
  const std::vector<uint64_t> values = {0, 1, 127, 128, 300, 16383, 16384,
                                        UINT64_MAX / 2, UINT64_MAX};
  for (uint64_t v : values) w.PutVarint(v);
  Decoder dec(buf);
  for (uint64_t v : values) {
    uint64_t out = 0;
    ASSERT_TRUE(dec.GetVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(dec.exhausted());
}

TEST(CodecTest, VarintIsCompactForSmallValues) {
  Buffer buf;
  Writer w(&buf);
  w.PutVarint(5);
  EXPECT_EQ(buf.size(), 1u);
  w.PutVarint(300);
  EXPECT_EQ(buf.size(), 3u);  // 1 + 2.
}

TEST(CodecTest, SignedVarintRoundTrip) {
  Buffer buf;
  Writer w(&buf);
  const std::vector<int64_t> values = {0,         -1,       1,
                                       -64,       64,       INT64_MIN,
                                       INT64_MAX, -1234567, 7654321};
  for (int64_t v : values) w.PutSignedVarint(v);
  Decoder dec(buf);
  for (int64_t v : values) {
    int64_t out = 0;
    ASSERT_TRUE(dec.GetSignedVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(CodecTest, ZigZagKeepsSmallNegativesSmall) {
  Buffer buf;
  Writer w(&buf);
  w.PutSignedVarint(-3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(CodecTest, FixedWidthRoundTrip) {
  Buffer buf;
  Writer w(&buf);
  w.PutFixed32(0xDEADBEEFu);
  w.PutFixed64(0x0123456789ABCDEFull);
  Decoder dec(buf);
  uint32_t a = 0;
  uint64_t b = 0;
  ASSERT_TRUE(dec.GetFixed32(&a).ok());
  ASSERT_TRUE(dec.GetFixed64(&b).ok());
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
}

TEST(CodecTest, StringRoundTrip) {
  Buffer buf;
  Writer w(&buf);
  w.PutString("");
  w.PutString("hello");
  w.PutString(std::string(1000, 'x'));
  Decoder dec(buf);
  std::string out;
  ASSERT_TRUE(dec.GetString(&out).ok());
  EXPECT_EQ(out, "");
  ASSERT_TRUE(dec.GetString(&out).ok());
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(dec.GetString(&out).ok());
  EXPECT_EQ(out.size(), 1000u);
}

TEST(CodecTest, DecodePastEndFails) {
  Buffer buf;
  Writer w(&buf);
  w.PutU8(0x80);  // Unterminated varint.
  Decoder dec(buf);
  uint64_t out = 0;
  EXPECT_FALSE(dec.GetVarint(&out).ok());

  Decoder empty(nullptr, 0);
  uint8_t b = 0;
  EXPECT_FALSE(empty.GetU8(&b).ok());
  uint32_t f = 0;
  EXPECT_FALSE(empty.GetFixed32(&f).ok());
}

TEST(CodecTest, StringLengthBeyondBufferFails) {
  Buffer buf;
  Writer w(&buf);
  w.PutVarint(1000);  // Claims 1000 bytes, provides none.
  Decoder dec(buf);
  std::string out;
  EXPECT_FALSE(dec.GetString(&out).ok());
}

TEST(CodecTest, BoolRejectsOutOfRange) {
  Buffer buf;
  Writer w(&buf);
  w.PutU8(2);
  Decoder dec(buf);
  bool out = false;
  EXPECT_FALSE(dec.GetBool(&out).ok());
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926, the classic check value.
  const char* data = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(data), 9), 0xCBF43926u);
}

// Eight bytes per step must agree with the byte-at-a-time definition at
// every length and alignment, tails included.
TEST(Crc32Test, MatchesTheBytewiseDefinition) {
  const auto bytewise = [](const uint8_t* p, size_t len) {
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
      crc ^= p[i];
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  Rng rng(99);
  std::vector<uint8_t> data(300);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len + offset <= data.size(); len += 1 + len / 8) {
      EXPECT_EQ(Crc32(data.data() + offset, len),
                bytewise(data.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, DetectsBitFlips) {
  std::vector<uint8_t> data(64, 0xAB);
  const uint32_t original = Crc32(data);
  data[17] ^= 0x01;
  EXPECT_NE(Crc32(data), original);
}

// --- Message round trips -----------------------------------------------------

TxnBodyPtr SampleBody() {
  return MakeTxnBody(
      TxnId{3, 42},
      {{"alpha", 123456, TxnId{1, 7}}, {"beta", kMinTimestamp, TxnId{}}},
      {{"gamma", "value-1"}, {"delta", std::string(100, 'z')}});
}

TEST(SerializationTest, TxnBodyRoundTrip) {
  Buffer buf;
  Writer w(&buf);
  EncodeTxnBody(*SampleBody(), &w);
  Decoder dec(buf);
  TxnBodyPtr out;
  ASSERT_TRUE(DecodeTxnBody(&dec, &out).ok());
  EXPECT_EQ(out->id, (TxnId{3, 42}));
  ASSERT_EQ(out->read_set.size(), 2u);
  EXPECT_EQ(out->read_set[0].key, "alpha");
  EXPECT_EQ(out->read_set[0].version_ts, 123456);
  EXPECT_EQ(out->read_set[0].version_writer, (TxnId{1, 7}));
  EXPECT_EQ(out->read_set[1].version_ts, kMinTimestamp);
  ASSERT_EQ(out->write_set.size(), 2u);
  EXPECT_EQ(out->write_set[1].value, std::string(100, 'z'));
}

TEST(SerializationTest, LogRecordRoundTrip) {
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kFinished;
  rec.committed = true;
  rec.ts = 987654321;
  rec.version_ts = 987654400;
  rec.origin = 4;
  rec.body = SampleBody();
  Buffer buf;
  Writer w(&buf);
  EncodeLogRecord(rec, &w);
  Decoder dec(buf);
  rdict::LogRecord out;
  ASSERT_TRUE(DecodeLogRecord(&dec, &out).ok());
  EXPECT_EQ(out.type, rdict::RecordType::kFinished);
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.ts, 987654321);
  EXPECT_EQ(out.version_ts, 987654400);
  EXPECT_EQ(out.origin, 4);
  EXPECT_EQ(out.body->id, rec.body->id);
}

TEST(SerializationTest, TimetableRoundTrip) {
  rdict::Timetable table(4);
  Rng rng(3);
  for (DcId i = 0; i < 4; ++i) {
    for (DcId j = 0; j < 4; ++j) {
      table.Set(i, j, static_cast<Timestamp>(rng.Uniform(1u << 30)));
    }
  }
  Buffer buf;
  Writer w(&buf);
  EncodeTimetable(table, &w);
  Decoder dec(buf);
  rdict::Timetable out(1);
  ASSERT_TRUE(DecodeTimetable(&dec, &out).ok());
  EXPECT_EQ(out, table);
}

core::Envelope SampleEnvelope() {
  core::Envelope env(3);
  env.log.from = 2;
  env.log.table.Set(0, 1, 100);
  env.log.table.Set(2, 2, 777);
  rdict::LogRecord rec;
  rec.type = rdict::RecordType::kPreparing;
  rec.ts = 555;
  rec.origin = 2;
  rec.body = SampleBody();
  env.log.records.push_back(rec);
  env.refusals.push_back(core::Refusal{1, TxnId{0, 9}, 444});
  return env;
}

/// A framed envelope as a mutable byte string.
std::vector<uint8_t> Framed(const core::Envelope& env) {
  Framer framer;
  return framer.Frame(env).ToVector();
}

TEST(SerializationTest, EnvelopeRoundTrip) {
  const core::Envelope env = SampleEnvelope();
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(env, &w);
  Decoder dec(buf);
  core::Envelope out(1);
  ASSERT_TRUE(DecodeEnvelope(&dec, &out).ok());
  EXPECT_EQ(out.log.from, 2);
  EXPECT_EQ(out.log.table, env.log.table);
  ASSERT_EQ(out.log.records.size(), 1u);
  EXPECT_EQ(out.log.records[0].ts, 555);
  ASSERT_EQ(out.refusals.size(), 1u);
  EXPECT_EQ(out.refusals[0], env.refusals[0]);
  EXPECT_TRUE(dec.exhausted());
}

/// Decodes `env` after an encode, expecting success and no leftover bytes.
core::Envelope RoundTrip(const core::Envelope& env) {
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(env, &w);
  Decoder dec(buf);
  core::Envelope out(1);
  EXPECT_TRUE(DecodeEnvelope(&dec, &out).ok());
  EXPECT_TRUE(dec.exhausted());
  return out;
}

TEST(SerializationTest, ApparentDelayRoundTripsPresentAbsentAndNegative) {
  core::Envelope env = SampleEnvelope();
  EXPECT_FALSE(RoundTrip(env).apparent_delay_us.has_value());
  // Apparent delays go negative when the receiver's clock runs ahead.
  for (Duration d : {Duration{0}, Duration{62500}, Duration{-97000}}) {
    env.apparent_delay_us = d;
    const core::Envelope out = RoundTrip(env);
    ASSERT_TRUE(out.apparent_delay_us.has_value());
    EXPECT_EQ(*out.apparent_delay_us, d);
    EXPECT_EQ(out.kind, core::EnvelopeKind::kGossip);
    EXPECT_TRUE(out.suspicions.empty());
  }
  // Alongside the other trailing sections.
  env.kind = core::EnvelopeKind::kCatchupResponse;
  env.suspicions = {core::Suspicion{1, 4242}};
  const core::Envelope out = RoundTrip(env);
  EXPECT_EQ(out.kind, core::EnvelopeKind::kCatchupResponse);
  EXPECT_EQ(out.suspicions, env.suspicions);
  EXPECT_EQ(out.apparent_delay_us, env.apparent_delay_us);
}

TEST(SerializationTest, TruncatedApparentDelayIsRejected) {
  core::Envelope env = SampleEnvelope();
  env.apparent_delay_us = Seconds(3);  // A multi-byte varint.
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(env, &w);
  std::vector<uint8_t> bytes = buf.ToVector();
  bytes.pop_back();
  Decoder dec(bytes);
  core::Envelope out(1);
  EXPECT_FALSE(DecodeEnvelope(&dec, &out).ok());
}

TEST(SerializationTest, UnknownTrailerBitsAreRejected) {
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(SampleEnvelope(), &w);
  std::vector<uint8_t> bytes = buf.ToVector();
  bytes.push_back(0x20);  // No such section.
  Decoder dec(bytes);
  core::Envelope out(1);
  EXPECT_FALSE(DecodeEnvelope(&dec, &out).ok());
}

TEST(SerializationTest, AckRoundTripsAloneAndWithTheOtherTrailingSections) {
  core::Envelope env = SampleEnvelope();
  env.kind = core::EnvelopeKind::kAck;
  core::Envelope out = RoundTrip(env);
  EXPECT_EQ(out.kind, core::EnvelopeKind::kAck);
  EXPECT_EQ(out.log.table, env.log.table);
  EXPECT_EQ(out.refusals, env.refusals);
  EXPECT_TRUE(out.suspicions.empty());
  EXPECT_FALSE(out.apparent_delay_us.has_value());
  env.suspicions = {core::Suspicion{0, 4242}, core::Suspicion{1, 17}};
  env.apparent_delay_us = -Millis(3);
  out = RoundTrip(env);
  EXPECT_EQ(out.kind, core::EnvelopeKind::kAck);
  EXPECT_EQ(out.suspicions, env.suspicions);
  EXPECT_EQ(out.apparent_delay_us, env.apparent_delay_us);
  const auto framed = UnframeEnvelope(Framed(env));
  ASSERT_TRUE(framed.ok()) << framed.status().ToString();
  EXPECT_EQ(framed.value().kind, core::EnvelopeKind::kAck);
}

TEST(SerializationTest, AckIsOneTrailerByteLargerThanGossip) {
  core::Envelope env = SampleEnvelope();
  const size_t gossip = EncodedEnvelopeSize(env);
  env.kind = core::EnvelopeKind::kAck;
  EXPECT_EQ(EncodedEnvelopeSize(env), gossip + 1);
}

TEST(SerializationTest, TruncatedAckTrailerIsRejected) {
  core::Envelope env = SampleEnvelope();
  env.kind = core::EnvelopeKind::kAck;
  env.suspicions = {core::Suspicion{1, 4242}};
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(env, &w);
  std::vector<uint8_t> bytes = buf.ToVector();
  // Cut inside the suspicion section the trailer byte announces.
  bytes.pop_back();
  Decoder dec(bytes);
  core::Envelope out(1);
  EXPECT_FALSE(DecodeEnvelope(&dec, &out).ok());
}

TEST(SerializationTest, GossipGrowsByExactlyTheApparentDelayBytes) {
  core::Envelope env = SampleEnvelope();
  const size_t without = EncodedEnvelopeSize(env);
  env.apparent_delay_us = 62500;
  Buffer field;
  Writer w(&field);
  w.PutSignedVarint(62500);
  // One trailer byte (a plain gossip envelope has none) plus the value.
  EXPECT_EQ(EncodedEnvelopeSize(env), without + 1 + field.size());
}

TEST(SerializationTest, FrameRoundTrip) {
  const auto bytes = Framed(SampleEnvelope());
  auto result = UnframeEnvelope(bytes);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().log.from, 2);
}

TEST(SerializationTest, FrameRejectsBadMagic) {
  auto bytes = Framed(SampleEnvelope());
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(UnframeEnvelope(bytes).ok());
}

TEST(SerializationTest, FrameRejectsCorruptedPayload) {
  auto bytes = Framed(SampleEnvelope());
  bytes[bytes.size() / 2] ^= 0x10;
  const auto result = UnframeEnvelope(bytes);
  ASSERT_FALSE(result.ok());
}

TEST(SerializationTest, FrameRejectsTruncation) {
  auto bytes = Framed(SampleEnvelope());
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(UnframeEnvelope(truncated).ok()) << "cut at " << cut;
  }
}

TEST(SerializationTest, FrameRejectsWrongVersion) {
  auto bytes = Framed(SampleEnvelope());
  // Version 1 laid out four more envelope fields mid-payload, so its
  // frames must be refused rather than misparsed.
  for (uint8_t version : {uint8_t{1}, uint8_t{kWireVersion + 1}}) {
    bytes[4] = version;
    const auto result = UnframeEnvelope(bytes);
    ASSERT_FALSE(result.ok()) << "version " << int{version};
    EXPECT_EQ(result.status().message(), "unsupported wire version");
  }
}

TEST(SerializationTest, EncodedSizeMatchesWriter) {
  const core::Envelope env = SampleEnvelope();
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(env, &w);
  EXPECT_EQ(EncodedEnvelopeSize(env), buf.size());
}

// Robustness: random byte soup must never crash the decoder or make it
// succeed with the frame checksum intact.
TEST(SerializationTest, RandomBytesNeverCrashDecoder) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.Uniform(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    const auto result = UnframeEnvelope(junk);
    // Overwhelmingly this fails; success would require a valid CRC over a
    // valid payload, which random bytes do not produce.
    EXPECT_FALSE(result.ok());
  }
}

// Robustness: corrupting the *payload portion* of a real frame either
// fails the CRC or (if we bypass framing) fails structured decoding
// without crashing.
TEST(SerializationTest, CorruptedPayloadDecodeIsSafe) {
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(SampleEnvelope(), &w);
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = buf.ToVector();
    const size_t flips = 1 + rng.Uniform(4);
    for (size_t i = 0; i < flips; ++i) {
      bytes[rng.Uniform(bytes.size())] ^= static_cast<uint8_t>(
          1u << rng.Uniform(8));
    }
    Decoder dec(bytes);
    core::Envelope out(1);
    // May succeed (the flip hit a value byte) or fail; must not crash.
    (void)DecodeEnvelope(&dec, &out);
  }
}

}  // namespace
}  // namespace helios::wire
