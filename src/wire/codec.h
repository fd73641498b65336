// Low-level wire codec: a byte sink and a bounds-checked byte source with
// varint/zigzag integer encodings, used by the message serialization in
// wire/serialization.h. All decode paths return Status instead of
// crashing on malformed input.
//
// Writer appends into a caller-owned wire::Buffer. Holding the Buffer
// across messages and Clear()ing between them makes steady-state encoding
// allocation-free. Decoder reads from a borrowed byte span, so decoding
// copies nothing either.

#ifndef HELIOS_WIRE_CODEC_H_
#define HELIOS_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "wire/buffer.h"

namespace helios::wire {

/// Appends encoded values to a borrowed Buffer. The Buffer must outlive
/// the Writer; several Writers may append to the same Buffer in sequence.
class Writer {
 public:
  explicit Writer(Buffer* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->PushBack(v); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  /// LEB128 varint.
  void PutVarint(uint64_t v);
  /// ZigZag-encoded signed varint.
  void PutSignedVarint(int64_t v);
  /// Length-prefixed byte string.
  void PutString(const std::string& s);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutRaw(const void* data, size_t len) { out_->Append(data, len); }

  /// Byte offset of the next write — pair with PatchFixed32 to backfill a
  /// fixed-width placeholder (e.g. a length field) once it is known.
  size_t offset() const { return out_->size(); }
  void PatchFixed32(size_t offset, uint32_t v);

  Buffer* buffer() { return out_; }

 private:
  Buffer* out_;
};

/// Bounds-checked byte source over a borrowed buffer.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Decoder(const std::vector<uint8_t>& bytes)
      : Decoder(bytes.data(), bytes.size()) {}
  explicit Decoder(const Buffer& buf) : Decoder(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out);
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint(uint64_t* out);
  Status GetSignedVarint(int64_t* out);
  Status GetString(std::string* out);
  Status GetBool(bool* out);

  size_t remaining() const { return len_ - pos_; }
  bool exhausted() const { return pos_ >= len_; }
  size_t position() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// CRC-32 (ISO-HDLC polynomial) over a byte span.
uint32_t Crc32(const uint8_t* data, size_t len);
inline uint32_t Crc32(const std::vector<uint8_t>& bytes) {
  return Crc32(bytes.data(), bytes.size());
}
inline uint32_t Crc32(const Buffer& buf) {
  return Crc32(buf.data(), buf.size());
}

}  // namespace helios::wire

#endif  // HELIOS_WIRE_CODEC_H_
