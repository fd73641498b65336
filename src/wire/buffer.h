// Caller-owned reusable byte buffer for the copy-free encode path.
//
// Buffer is the storage half of the wire::Writer API: a growable byte
// sink whose Clear() keeps its capacity, so a long-lived Buffer reaches a
// high-water mark after a few messages and every encode after that is
// allocation-free. Hold a Buffer and encode into it with a Writer.

#ifndef HELIOS_WIRE_BUFFER_H_
#define HELIOS_WIRE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace helios::wire {

class Buffer {
 public:
  Buffer() = default;

  // Movable but not copyable: accidental copies are exactly the
  // allocation churn this class exists to eliminate. Use Assign() or
  // ToVector() when a copy is genuinely wanted.
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&&) = default;
  Buffer& operator=(Buffer&&) = default;

  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* data() { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  size_t capacity() const { return bytes_.capacity(); }

  /// Drops the contents but keeps the allocation — the reuse primitive.
  void Clear() { bytes_.clear(); }

  void Reserve(size_t n) { bytes_.reserve(n); }

  void PushBack(uint8_t v) { bytes_.push_back(v); }

  void Append(const void* p, size_t n) {
    const uint8_t* src = static_cast<const uint8_t*>(p);
    bytes_.insert(bytes_.end(), src, src + n);
  }

  /// Appends `n` uninitialized bytes and returns a pointer to them, for
  /// encoders that patch a placeholder (e.g. a fixed-width length field)
  /// after the fact. The pointer is invalidated by any further growth.
  uint8_t* Extend(size_t n) {
    bytes_.resize(bytes_.size() + n);
    return bytes_.data() + bytes_.size() - n;
  }

  void Assign(const void* p, size_t n) {
    bytes_.assign(static_cast<const uint8_t*>(p),
                  static_cast<const uint8_t*>(p) + n);
  }

  /// Explicit copy out, for interop with std::vector interfaces.
  std::vector<uint8_t> ToVector() const { return bytes_; }

  const std::vector<uint8_t>& vec() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace helios::wire

#endif  // HELIOS_WIRE_BUFFER_H_
