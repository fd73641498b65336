#include "wire/codec.h"

#include <cassert>
#include <cstring>

namespace helios::wire {

void Writer::PutFixed32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutFixed64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void Writer::PutSignedVarint(int64_t v) {
  // ZigZag: small magnitudes (positive or negative) stay small.
  PutVarint((static_cast<uint64_t>(v) << 1) ^
            static_cast<uint64_t>(v >> 63));
}

void Writer::PutString(const std::string& s) {
  PutVarint(s.size());
  PutRaw(s.data(), s.size());
}

void Writer::PatchFixed32(size_t offset, uint32_t v) {
  assert(offset + 4 <= out_->size());
  uint8_t* p = out_->data() + offset;
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

Status Decoder::GetU8(uint8_t* out) {
  if (pos_ >= len_) return Status::InvalidArgument("decode past end");
  *out = data_[pos_++];
  return Status::Ok();
}

Status Decoder::GetFixed32(uint32_t* out) {
  if (len_ - pos_ < 4) return Status::InvalidArgument("decode past end");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  }
  *out = v;
  return Status::Ok();
}

Status Decoder::GetFixed64(uint64_t* out) {
  if (len_ - pos_ < 8) return Status::InvalidArgument("decode past end");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  }
  *out = v;
  return Status::Ok();
}

Status Decoder::GetVarint(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= len_) return Status::InvalidArgument("varint past end");
    if (shift >= 64) return Status::InvalidArgument("varint too long");
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::Ok();
}

Status Decoder::GetSignedVarint(int64_t* out) {
  uint64_t raw = 0;
  Status s = GetVarint(&raw);
  if (!s.ok()) return s;
  *out = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return Status::Ok();
}

Status Decoder::GetString(std::string* out) {
  uint64_t size = 0;
  Status s = GetVarint(&size);
  if (!s.ok()) return s;
  if (size > len_ - pos_) {
    return Status::InvalidArgument("string length exceeds buffer");
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<size_t>(size));
  pos_ += static_cast<size_t>(size);
  return Status::Ok();
}

Status Decoder::GetBool(bool* out) {
  uint8_t v = 0;
  Status s = GetU8(&v);
  if (!s.ok()) return s;
  if (v > 1) return Status::InvalidArgument("bool out of range");
  *out = v == 1;
  return Status::Ok();
}

namespace {

// Table-driven CRC-32 (reflected, polynomial 0xEDB88320), sliced by 8:
// t[0] is the byte-at-a-time table, and t[k] carries t[0]'s entry through
// k more zero bytes.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

/// Little-endian 32-bit load, independent of the host's byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  uint32_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  // Eight bytes per step: frames run to tens of KB, where a byte per step
  // made the checksum the costliest function in the wire's own code.
  for (; i + 8 <= len; i += 8) {
    const uint32_t lo = crc ^ LoadLe32(data + i);
    const uint32_t hi = LoadLe32(data + i + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; i < len; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace helios::wire
