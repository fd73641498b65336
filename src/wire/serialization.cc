#include "wire/serialization.h"

#include <memory>

namespace helios::wire {

namespace {

// Caps that keep malformed input from triggering giant allocations.
constexpr uint64_t kMaxSetSize = 1 << 20;
constexpr uint64_t kMaxRecords = 1 << 22;
constexpr uint64_t kMaxDatacenters = 1 << 10;

// Envelope trailer byte: the kind in the low bits, one flag per optional
// section that follows it.
constexpr uint8_t kKindMask = 0x03;
constexpr uint8_t kHasSuspicions = 0x40;
constexpr uint8_t kHasApparentDelay = 0x80;
static_assert(static_cast<uint8_t>(core::EnvelopeKind::kAck) == kKindMask,
              "every envelope kind fits the trailer's kind bits");

}  // namespace

void EncodeTxnId(const TxnId& id, Writer* w) {
  w->PutSignedVarint(id.origin);
  w->PutVarint(id.seq);
}

Status DecodeTxnId(Decoder* dec, TxnId* out) {
  int64_t origin = 0;
  uint64_t seq = 0;
  Status s = dec->GetSignedVarint(&origin);
  if (!s.ok()) return s;
  s = dec->GetVarint(&seq);
  if (!s.ok()) return s;
  out->origin = static_cast<DcId>(origin);
  out->seq = seq;
  return Status::Ok();
}

void EncodeTxnBody(const TxnBody& body, Writer* w) {
  EncodeTxnId(body.id, w);
  w->PutVarint(body.read_set.size());
  for (const ReadEntry& r : body.read_set) {
    w->PutString(r.key);
    w->PutSignedVarint(r.version_ts);
    EncodeTxnId(r.version_writer, w);
  }
  w->PutVarint(body.write_set.size());
  for (const WriteEntry& wr : body.write_set) {
    w->PutString(wr.key);
    w->PutString(wr.value);
  }
}

Status DecodeTxnBody(Decoder* dec, TxnBodyPtr* out) {
  TxnId id;
  Status s = DecodeTxnId(dec, &id);
  if (!s.ok()) return s;

  uint64_t reads = 0;
  s = dec->GetVarint(&reads);
  if (!s.ok()) return s;
  if (reads > kMaxSetSize) return Status::InvalidArgument("read set too big");
  std::vector<ReadEntry> read_set;
  read_set.reserve(reads);
  for (uint64_t i = 0; i < reads; ++i) {
    ReadEntry r;
    s = dec->GetString(&r.key);
    if (!s.ok()) return s;
    s = dec->GetSignedVarint(&r.version_ts);
    if (!s.ok()) return s;
    s = DecodeTxnId(dec, &r.version_writer);
    if (!s.ok()) return s;
    read_set.push_back(std::move(r));
  }

  uint64_t writes = 0;
  s = dec->GetVarint(&writes);
  if (!s.ok()) return s;
  if (writes > kMaxSetSize) return Status::InvalidArgument("write set too big");
  std::vector<WriteEntry> write_set;
  write_set.reserve(writes);
  for (uint64_t i = 0; i < writes; ++i) {
    WriteEntry wr;
    s = dec->GetString(&wr.key);
    if (!s.ok()) return s;
    s = dec->GetString(&wr.value);
    if (!s.ok()) return s;
    write_set.push_back(std::move(wr));
  }
  *out = std::make_shared<TxnBody>(
      TxnBody{id, std::move(read_set), std::move(write_set)});
  return Status::Ok();
}

void EncodeLogRecord(const rdict::LogRecord& rec, Writer* w) {
  w->PutU8(rec.type == rdict::RecordType::kPreparing ? 0 : 1);
  w->PutBool(rec.committed);
  w->PutSignedVarint(rec.ts);
  w->PutSignedVarint(rec.version_ts);
  w->PutSignedVarint(rec.origin);
  EncodeTxnBody(*rec.body, w);
}

Status DecodeLogRecord(Decoder* dec, rdict::LogRecord* out) {
  uint8_t type = 0;
  Status s = dec->GetU8(&type);
  if (!s.ok()) return s;
  if (type > 1) return Status::InvalidArgument("bad record type");
  out->type = type == 0 ? rdict::RecordType::kPreparing
                        : rdict::RecordType::kFinished;
  s = dec->GetBool(&out->committed);
  if (!s.ok()) return s;
  s = dec->GetSignedVarint(&out->ts);
  if (!s.ok()) return s;
  s = dec->GetSignedVarint(&out->version_ts);
  if (!s.ok()) return s;
  int64_t origin = 0;
  s = dec->GetSignedVarint(&origin);
  if (!s.ok()) return s;
  out->origin = static_cast<DcId>(origin);
  TxnBodyPtr body;
  s = DecodeTxnBody(dec, &body);
  if (!s.ok()) return s;
  out->body = std::move(body);
  return Status::Ok();
}

void EncodeTimetable(const rdict::Timetable& table, Writer* w) {
  const int n = table.size();
  w->PutVarint(static_cast<uint64_t>(n));
  for (DcId i = 0; i < n; ++i) {
    for (DcId j = 0; j < n; ++j) {
      w->PutSignedVarint(table.Get(i, j));
    }
  }
}

Status DecodeTimetable(Decoder* dec, rdict::Timetable* out) {
  uint64_t n = 0;
  Status s = dec->GetVarint(&n);
  if (!s.ok()) return s;
  if (n == 0 || n > kMaxDatacenters) {
    return Status::InvalidArgument("bad timetable size");
  }
  rdict::Timetable table(static_cast<int>(n));
  for (DcId i = 0; i < static_cast<int>(n); ++i) {
    for (DcId j = 0; j < static_cast<int>(n); ++j) {
      int64_t v = 0;
      s = dec->GetSignedVarint(&v);
      if (!s.ok()) return s;
      table.Set(i, j, v);
    }
  }
  *out = table;
  return Status::Ok();
}

void EncodeLogMessage(const rdict::LogMessage& msg, Writer* w) {
  w->PutSignedVarint(msg.from);
  EncodeTimetable(msg.table, w);
  w->PutVarint(msg.records.size());
  for (const rdict::LogRecord& rec : msg.records) {
    EncodeLogRecord(rec, w);
  }
}

Status DecodeLogMessage(Decoder* dec, rdict::LogMessage* out) {
  int64_t from = 0;
  Status s = dec->GetSignedVarint(&from);
  if (!s.ok()) return s;
  rdict::Timetable table(1);
  s = DecodeTimetable(dec, &table);
  if (!s.ok()) return s;
  uint64_t count = 0;
  s = dec->GetVarint(&count);
  if (!s.ok()) return s;
  if (count > kMaxRecords) return Status::InvalidArgument("too many records");
  rdict::LogMessage msg(table.size());
  msg.from = static_cast<DcId>(from);
  msg.table = table;
  msg.records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    rdict::LogRecord rec;
    s = DecodeLogRecord(dec, &rec);
    if (!s.ok()) return s;
    msg.records.push_back(std::move(rec));
  }
  *out = std::move(msg);
  return Status::Ok();
}

void EncodeEnvelope(const core::Envelope& env, Writer* w) {
  EncodeLogMessage(env.log, w);
  w->PutVarint(env.refusals.size());
  for (const core::Refusal& r : env.refusals) {
    w->PutSignedVarint(r.refuser);
    EncodeTxnId(r.txn, w);
    w->PutSignedVarint(r.txn_ts);
  }
  // Trailing optionals behind one trailer byte: the envelope kind in the
  // low bits, plus a flag per optional section that follows (suspicions,
  // then the apparent delay). A gossip envelope with none of them carries
  // no trailer byte.
  const bool has_suspicions = !env.suspicions.empty();
  const bool has_delay = env.apparent_delay_us.has_value();
  if (env.kind != core::EnvelopeKind::kGossip || has_suspicions || has_delay) {
    w->PutU8(static_cast<uint8_t>(
        static_cast<uint8_t>(env.kind) | (has_suspicions ? kHasSuspicions : 0) |
        (has_delay ? kHasApparentDelay : 0)));
  }
  if (has_suspicions) {
    w->PutVarint(env.suspicions.size());
    for (const core::Suspicion& s : env.suspicions) {
      w->PutSignedVarint(s.target);
      w->PutSignedVarint(s.since);
    }
  }
  if (has_delay) w->PutSignedVarint(*env.apparent_delay_us);
}

Status DecodeEnvelope(Decoder* dec, core::Envelope* out) {
  rdict::LogMessage msg(1);
  Status s = DecodeLogMessage(dec, &msg);
  if (!s.ok()) return s;
  core::Envelope env(msg.table.size());
  env.log = std::move(msg);
  uint64_t refusals = 0;
  s = dec->GetVarint(&refusals);
  if (!s.ok()) return s;
  if (refusals > kMaxSetSize) {
    return Status::InvalidArgument("too many refusals");
  }
  env.refusals.reserve(refusals);
  for (uint64_t i = 0; i < refusals; ++i) {
    core::Refusal r;
    int64_t refuser = 0;
    s = dec->GetSignedVarint(&refuser);
    if (!s.ok()) return s;
    r.refuser = static_cast<DcId>(refuser);
    s = DecodeTxnId(dec, &r.txn);
    if (!s.ok()) return s;
    s = dec->GetSignedVarint(&r.txn_ts);
    if (!s.ok()) return s;
    env.refusals.push_back(r);
  }
  if (dec->remaining() == 0) {
    *out = std::move(env);
    return Status::Ok();
  }
  uint8_t trailer = 0;
  s = dec->GetU8(&trailer);
  if (!s.ok()) return s;
  // The kind bits have no invalid value: kAck takes the last one.
  if ((trailer & ~(kKindMask | kHasSuspicions | kHasApparentDelay)) != 0) {
    return Status::InvalidArgument("bad envelope trailer");
  }
  env.kind = static_cast<core::EnvelopeKind>(trailer & kKindMask);
  if ((trailer & kHasSuspicions) != 0) {
    uint64_t suspicions = 0;
    s = dec->GetVarint(&suspicions);
    if (!s.ok()) return s;
    if (suspicions == 0 || suspicions > kMaxDatacenters) {
      return Status::InvalidArgument("bad suspicion count");
    }
    env.suspicions.reserve(suspicions);
    for (uint64_t i = 0; i < suspicions; ++i) {
      core::Suspicion susp;
      int64_t target = 0;
      s = dec->GetSignedVarint(&target);
      if (!s.ok()) return s;
      susp.target = static_cast<DcId>(target);
      s = dec->GetSignedVarint(&susp.since);
      if (!s.ok()) return s;
      env.suspicions.push_back(susp);
    }
  }
  if ((trailer & kHasApparentDelay) != 0) {
    Duration delay = 0;
    s = dec->GetSignedVarint(&delay);
    if (!s.ok()) return s;
    env.apparent_delay_us = delay;
  }
  *out = std::move(env);
  return Status::Ok();
}

void FrameEnvelopeInto(const core::Envelope& env, Buffer* scratch,
                       Buffer* out) {
  scratch->Clear();
  Writer payload(scratch);
  EncodeEnvelope(env, &payload);
  out->Clear();
  Writer frame(out);
  frame.PutFixed32(kFrameMagic);
  frame.PutU8(kWireVersion);
  frame.PutVarint(scratch->size());
  frame.PutRaw(scratch->data(), scratch->size());
  frame.PutFixed32(Crc32(*scratch));
}

Result<core::Envelope> UnframeEnvelope(const uint8_t* data, size_t len) {
  Decoder dec(data, len);
  uint32_t magic = 0;
  Status s = dec.GetFixed32(&magic);
  if (!s.ok()) return s;
  if (magic != kFrameMagic) return Status::InvalidArgument("bad frame magic");
  uint8_t version = 0;
  s = dec.GetU8(&version);
  if (!s.ok()) return s;
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  uint64_t payload_len = 0;
  s = dec.GetVarint(&payload_len);
  if (!s.ok()) return s;
  if (payload_len > dec.remaining() ||
      dec.remaining() - payload_len != 4) {
    return Status::InvalidArgument("frame length mismatch");
  }
  const uint8_t* payload = data + dec.position();
  const uint32_t computed =
      Crc32(payload, static_cast<size_t>(payload_len));
  Decoder tail(payload + payload_len, 4);
  uint32_t stored = 0;
  s = tail.GetFixed32(&stored);
  if (!s.ok()) return s;
  if (stored != computed) {
    return Status::InvalidArgument("frame checksum mismatch");
  }
  Decoder payload_dec(payload, static_cast<size_t>(payload_len));
  core::Envelope env(1);
  s = DecodeEnvelope(&payload_dec, &env);
  if (!s.ok()) return s;
  if (!payload_dec.exhausted()) {
    return Status::InvalidArgument("trailing bytes in payload");
  }
  return env;
}

size_t EncodedEnvelopeSize(const core::Envelope& env) {
  // Bandwidth accounting runs once per simulated send; the thread-local
  // scratch keeps that from allocating a fresh vector every message.
  thread_local Buffer scratch;
  scratch.Clear();
  Writer w(&scratch);
  EncodeEnvelope(env, &w);
  return scratch.size();
}

}  // namespace helios::wire
