// Tests for the copy-free encode surface: wire::Buffer reuse semantics,
// Writer placeholder patching, reused Buffers and Framers producing the
// same bytes as fresh ones over a message corpus (reuse-after-clear
// stability), EncodedEnvelopeSize agreement, and a truncation-prefix sweep
// (no proper prefix of a framed message may decode).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "wire/buffer.h"
#include "wire/codec.h"
#include "wire/serialization.h"

namespace helios::wire {
namespace {

// --- Buffer semantics -------------------------------------------------------

TEST(BufferTest, ClearKeepsCapacity) {
  Buffer buf;
  for (int i = 0; i < 1000; ++i) buf.PushBack(static_cast<uint8_t>(i));
  ASSERT_EQ(buf.size(), 1000u);
  const size_t high_water = buf.capacity();
  ASSERT_GE(high_water, 1000u);
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), high_water);  // The reuse contract.
}

TEST(BufferTest, ExtendReturnsWritableTail) {
  Buffer buf;
  buf.PushBack(0xAA);
  uint8_t* tail = buf.Extend(4);
  tail[0] = 1;
  tail[1] = 2;
  tail[2] = 3;
  tail[3] = 4;
  ASSERT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.data()[0], 0xAA);
  EXPECT_EQ(buf.data()[4], 4);
}

TEST(BufferTest, AssignAndCopyOut) {
  const uint8_t raw[] = {9, 8, 7};
  Buffer buf;
  buf.Assign(raw, sizeof(raw));
  EXPECT_EQ(buf.ToVector(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(buf.vec(), (std::vector<uint8_t>{9, 8, 7}));
}

// --- Writer ------------------------------------------------------------------

TEST(WriterTest, PatchFixed32BackfillsPlaceholder) {
  Buffer buf;
  Writer w(&buf);
  w.PutU8(0x5A);
  const size_t at = w.offset();
  w.PutFixed32(0);  // Placeholder.
  w.PutString("payload");
  w.PatchFixed32(at, 0xDEADBEEFu);
  Decoder r(buf);
  uint8_t lead = 0;
  uint32_t patched = 0;
  std::string s;
  ASSERT_TRUE(r.GetU8(&lead).ok());
  ASSERT_TRUE(r.GetFixed32(&patched).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(lead, 0x5A);
  EXPECT_EQ(patched, 0xDEADBEEFu);
  EXPECT_EQ(s, "payload");
  EXPECT_TRUE(r.exhausted());
}

TEST(WriterTest, SequentialWritersShareOneBuffer) {
  Buffer buf;
  {
    Writer a(&buf);
    a.PutVarint(300);
  }
  {
    Writer b(&buf);
    b.PutString("tail");
  }
  Decoder r(buf);
  uint64_t v = 0;
  std::string s;
  ASSERT_TRUE(r.GetVarint(&v).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(v, 300u);
  EXPECT_EQ(s, "tail");
}

// --- Envelope corpus: reused buffers == fresh ones ---------------------------

/// Deterministic corpus spanning the envelope feature space: records with
/// read/write sets, refusals, apparent delays (the trailer path), catch-up
/// kinds, and the degenerate empty-heartbeat shape.
std::vector<core::Envelope> CorpusEnvelopes() {
  std::vector<core::Envelope> corpus;
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    core::Envelope env(4);
    env.log.from = static_cast<DcId>(i % 4);
    for (DcId a = 0; a < 4; ++a) {
      for (DcId b = 0; b < 4; ++b) {
        env.log.table.Set(a, b, static_cast<Timestamp>(rng.Uniform(1u << 24)));
      }
    }
    const int records = i % 4;  // Includes record-free heartbeats.
    for (int rec_i = 0; rec_i < records; ++rec_i) {
      rdict::LogRecord rec;
      rec.type = (rec_i % 2 == 0) ? rdict::RecordType::kPreparing
                                  : rdict::RecordType::kFinished;
      rec.ts = static_cast<Timestamp>(1000 * i + rec_i);
      rec.origin = env.log.from;
      std::vector<ReadEntry> reads;
      std::vector<WriteEntry> writes;
      for (int j = 0; j < 3; ++j) {
        // Distinct keys: a write set never names a key twice.
        std::string key;
        do {
          key = "user" + std::to_string(rng.Uniform(500));
        } while (std::any_of(
            writes.begin(), writes.end(),
            [&key](const WriteEntry& w) { return w.key == key; }));
        reads.push_back({key, static_cast<Timestamp>(rng.Uniform(1 << 20)),
                         TxnId{static_cast<DcId>(j % 4), rng.Uniform(100)}});
        writes.push_back({key, std::string(1 + rng.Uniform(40), 'v')});
      }
      rec.body = MakeTxnBody(TxnId{env.log.from,
                                   static_cast<uint64_t>(10 * i + rec_i)},
                             std::move(reads), std::move(writes));
      env.log.records.push_back(rec);
    }
    if (i % 3 == 0) {
      env.refusals.push_back(
          core::Refusal{static_cast<DcId>((i + 1) % 4),
                        TxnId{static_cast<DcId>(i % 4), 77}, 1234});
    }
    // Negative apparent delays are legal (the sender's clock runs behind).
    if (i % 2 == 0) env.apparent_delay_us = 25000 * i - 60000;
    if (i == 5) env.kind = core::EnvelopeKind::kCatchupRequest;
    if (i == 9) env.kind = core::EnvelopeKind::kCatchupResponse;
    corpus.push_back(std::move(env));
  }
  return corpus;
}

/// The envelope encoded into a fresh Buffer: the reference bytes every
/// reused buffer must reproduce.
std::vector<uint8_t> FreshEncode(const core::Envelope& env) {
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(env, &w);
  return buf.ToVector();
}

/// The envelope framed by a fresh Framer.
std::vector<uint8_t> FreshFrame(const core::Envelope& env) {
  Framer framer;
  return framer.Frame(env).ToVector();
}

TEST(WriterEquivalenceTest, EncodeEnvelopeMatchesLegacyEncoderOnCorpus) {
  Buffer buf;
  for (const core::Envelope& env : CorpusEnvelopes()) {
    buf.Clear();
    Writer w(&buf);
    EncodeEnvelope(env, &w);
    ASSERT_EQ(buf.vec(), FreshEncode(env));
    ASSERT_EQ(buf.size(), EncodedEnvelopeSize(env));
  }
}

TEST(WriterEquivalenceTest, FramerMatchesLegacyFrameEnvelopeOnCorpus) {
  Framer framer;
  for (const core::Envelope& env : CorpusEnvelopes()) {
    const Buffer& framed = framer.Frame(env);
    ASSERT_EQ(framed.vec(), FreshFrame(env));
    auto round = UnframeEnvelope(framed);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(round.value().log.from, env.log.from);
    EXPECT_EQ(round.value().log.records.size(), env.log.records.size());
    EXPECT_EQ(round.value().kind, env.kind);
  }
}

TEST(WriterEquivalenceTest, ReuseAfterClearIsByteStable) {
  // Encoding the same message into a reused Buffer must yield identical
  // bytes every time — stale tail bytes from a larger earlier message
  // must never leak into a later encode.
  const auto corpus = CorpusEnvelopes();
  // Encode the biggest message first so the reused buffer's capacity
  // exceeds every later message.
  Buffer buf;
  Writer w(&buf);
  EncodeEnvelope(corpus.back(), &w);
  for (const core::Envelope& env : corpus) {
    const std::vector<uint8_t> fresh = FreshEncode(env);
    for (int repeat = 0; repeat < 3; ++repeat) {
      buf.Clear();
      Writer reuse(&buf);
      EncodeEnvelope(env, &reuse);
      ASSERT_EQ(buf.vec(), fresh);
    }
  }
}

TEST(WriterEquivalenceTest, FramerReuseShrinksAndGrowsCorrectly) {
  // Alternate big and tiny envelopes through one Framer: each frame must
  // be exactly the one-shot frame for that envelope, regardless of what
  // the scratch buffers held before.
  const auto corpus = CorpusEnvelopes();
  Framer framer;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const core::Envelope& env = corpus[i % 2 == 0 ? corpus.size() - 1 - i / 2
                                                  : i / 2];
    ASSERT_EQ(framer.Frame(env).vec(), FreshFrame(env));
  }
}

// --- Truncation: no proper prefix may decode --------------------------------

TEST(TruncationTest, EveryProperPrefixOfFrameFailsToUnframe) {
  for (const core::Envelope& env : CorpusEnvelopes()) {
    const std::vector<uint8_t> bytes = FreshFrame(env);
    // Dense sweep over the frame header and record boundaries; sparse over
    // the payload interior to keep the test fast.
    for (size_t len = 0; len < bytes.size();
         len += (len < 64 || len + 64 >= bytes.size()) ? 1 : 7) {
      auto result = UnframeEnvelope(bytes.data(), len);
      ASSERT_FALSE(result.ok())
          << "prefix of length " << len << "/" << bytes.size() << " decoded";
    }
  }
}

TEST(TruncationTest, EveryProperPrefixOfPayloadFailsToDecode) {
  Buffer buf;
  Writer w(&buf);
  const auto corpus = CorpusEnvelopes();
  EncodeEnvelope(corpus[3], &w);  // A record-carrying envelope.
  for (size_t len = 0; len < buf.size(); ++len) {
    Decoder r(buf.data(), len);
    core::Envelope out(1);
    ASSERT_FALSE(DecodeEnvelope(&r, &out).ok())
        << "payload prefix of length " << len << " decoded";
  }
}

}  // namespace
}  // namespace helios::wire
