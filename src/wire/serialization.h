// Wire serialization of the messages Helios datacenters exchange: the
// transaction payloads, log records, the timetable, and the full envelope
// (partial log + refusals), with a CRC-framed container.
//
// The simulator moves messages as in-process objects, but a production
// deployment ships them over WAN sockets; this module is that boundary. It
// also powers the bandwidth accounting in the network model (message
// transmission time = encoded size / link bandwidth) and the
// message-size statistics in the ablation benches.
//
// Wire format: all integers are varints (timestamps zigzagged), strings
// length-prefixed. A framed message is
//   magic(4) | version(1) | payload_len(varint) | payload | crc32(4)
// where the CRC covers the payload only.
//
// Encoding API: every Encode* takes a wire::Writer, which appends into a
// caller-owned reusable Buffer — a send loop that keeps its Buffer (or a
// Framer) across messages does zero steady-state allocation.

#ifndef HELIOS_WIRE_SERIALIZATION_H_
#define HELIOS_WIRE_SERIALIZATION_H_

#include <vector>

#include "common/status.h"
#include "core/envelope.h"
#include "rdict/record.h"
#include "rdict/replicated_log.h"
#include "rdict/timetable.h"
#include "txn/transaction.h"
#include "wire/buffer.h"
#include "wire/codec.h"

namespace helios::wire {

inline constexpr uint32_t kFrameMagic = 0x48454C4Fu;  // "HELO"
/// Version 2 dropped the envelope's four ping/pong fields from the middle
/// of its payload; a version-1 peer's frames are refused, not misparsed.
inline constexpr uint8_t kWireVersion = 2;

// --- Component encoders/decoders -------------------------------------------

void EncodeTxnId(const TxnId& id, Writer* w);
Status DecodeTxnId(Decoder* dec, TxnId* out);

void EncodeTxnBody(const TxnBody& body, Writer* w);
Status DecodeTxnBody(Decoder* dec, TxnBodyPtr* out);

void EncodeLogRecord(const rdict::LogRecord& rec, Writer* w);
Status DecodeLogRecord(Decoder* dec, rdict::LogRecord* out);

void EncodeTimetable(const rdict::Timetable& table, Writer* w);
Status DecodeTimetable(Decoder* dec, rdict::Timetable* out);

void EncodeLogMessage(const rdict::LogMessage& msg, Writer* w);
Status DecodeLogMessage(Decoder* dec, rdict::LogMessage* out);

void EncodeEnvelope(const core::Envelope& env, Writer* w);
Status DecodeEnvelope(Decoder* dec, core::Envelope* out);

// --- Framing ----------------------------------------------------------------

/// Encodes `env` framed + checksummed into `out` (appended after Clear;
/// `out` is cleared first). Reusing `out` across calls is the copy-free
/// path. `scratch` holds the unframed payload and is likewise reused.
void FrameEnvelopeInto(const core::Envelope& env, Buffer* scratch,
                       Buffer* out);

/// Reusable two-buffer framing scratch: the convenient form of
/// FrameEnvelopeInto for send loops.
class Framer {
 public:
  /// Returns the framed bytes for `env`; the reference is valid until the
  /// next Frame() call or the Framer dies.
  const Buffer& Frame(const core::Envelope& env) {
    FrameEnvelopeInto(env, &payload_, &frame_);
    return frame_;
  }

 private:
  Buffer payload_;
  Buffer frame_;
};

/// Parses a framed envelope; verifies magic, version, and CRC.
Result<core::Envelope> UnframeEnvelope(const uint8_t* data, size_t len);
inline Result<core::Envelope> UnframeEnvelope(
    const std::vector<uint8_t>& bytes) {
  return UnframeEnvelope(bytes.data(), bytes.size());
}
inline Result<core::Envelope> UnframeEnvelope(const Buffer& buf) {
  return UnframeEnvelope(buf.data(), buf.size());
}

/// Encoded (unframed) size of an envelope in bytes — what a deployment
/// would put on the wire; used for bandwidth accounting. Encodes into a
/// thread-local scratch buffer, so it does not allocate in steady state.
size_t EncodedEnvelopeSize(const core::Envelope& env);

}  // namespace helios::wire

#endif  // HELIOS_WIRE_SERIALIZATION_H_
