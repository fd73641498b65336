// Core identifier and time types shared by every Helios module.

#ifndef HELIOS_COMMON_TYPES_H_
#define HELIOS_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace helios {

/// Index of a datacenter within a deployment, 0..n-1.
using DcId = int32_t;

/// Sentinel for "no datacenter".
inline constexpr DcId kInvalidDc = -1;

/// A reading of some datacenter's local clock, in microseconds.
///
/// Timestamps from different datacenters are *not* comparable as wall-clock
/// instants (clocks are only loosely synchronized); they are comparable as
/// log positions of a single origin, and Helios compares cross-origin
/// timestamps only through the knowledge-timestamp machinery that tolerates
/// skew.
using Timestamp = int64_t;

/// A span of (simulated or local-clock) time, in microseconds.
using Duration = int64_t;

/// Sentinel timestamp smaller than every valid timestamp.
inline constexpr Timestamp kMinTimestamp = INT64_MIN / 4;

/// Converts milliseconds to the library's microsecond `Duration`.
constexpr Duration Millis(int64_t ms) { return ms * 1000; }

/// Converts microseconds to `Duration` (identity; documents intent).
constexpr Duration Micros(int64_t us) { return us; }

/// Converts seconds to `Duration`.
constexpr Duration Seconds(int64_t s) { return s * 1000 * 1000; }

/// Converts a `Duration` to fractional milliseconds for reporting.
constexpr double ToMillis(Duration d) { return static_cast<double>(d) / 1000.0; }

/// Globally unique transaction identifier: the issuing datacenter plus a
/// per-datacenter sequence number.
struct TxnId {
  DcId origin = kInvalidDc;
  uint64_t seq = 0;

  friend bool operator==(const TxnId& a, const TxnId& b) {
    return a.origin == b.origin && a.seq == b.seq;
  }
  friend bool operator!=(const TxnId& a, const TxnId& b) { return !(a == b); }
  friend bool operator<(const TxnId& a, const TxnId& b) {
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.seq < b.seq;
  }

  bool valid() const { return origin != kInvalidDc; }

  /// Renders as "origin:seq", e.g. "2:41".
  std::string ToString() const;
};

struct TxnIdHash {
  size_t operator()(const TxnId& id) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(id.origin) << 48) ^ id.seq);
  }
};

/// Keys and values stored in the replicated data store.
using Key = std::string;
using Value = std::string;

/// Rows of an initial image, loaded outside the protocol in this order.
using InitialRows = std::vector<std::pair<Key, Value>>;

}  // namespace helios

#endif  // HELIOS_COMMON_TYPES_H_
