// The message Helios datacenters exchange: a Replicated Dictionary partial
// log plus the liveness metadata of Section 4.4.

#ifndef HELIOS_CORE_ENVELOPE_H_
#define HELIOS_CORE_ENVELOPE_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "rdict/replicated_log.h"

namespace helios::core {

/// A datacenter's declaration that it will NOT acknowledge transaction
/// `txn`: its preparing record arrived later than q(t) + GT (grace-time
/// invalidation). Refusals gossip between datacenters so the transaction's
/// home learns that this peer cannot count toward the f-acknowledgment
/// quorum.
struct Refusal {
  DcId refuser = kInvalidDc;
  TxnId txn;
  /// The transaction's request timestamp q(t); lets receivers garbage-
  /// collect refusals whose transactions are long since decided.
  Timestamp txn_ts = kMinTimestamp;

  friend bool operator==(const Refusal& a, const Refusal& b) {
    return a.refuser == b.refuser && a.txn == b.txn;
  }
};

/// A datacenter's declaration that it currently suspects `target` of a
/// gray failure (phi-accrual threshold crossed, src/health). Suspicions
/// gossip on every envelope while held; absence from an envelope means the
/// sender no longer suspects. Receivers use them to assemble the
/// suspicion quorum that licenses degraded commit: because they ride the
/// same envelope as the sender's partial log, a receiver that processes a
/// suspicion has — by Replicated Dictionary causality — already ingested
/// every record of the suspect the sender acknowledged before suspecting.
struct Suspicion {
  DcId target = kInvalidDc;
  /// The sender's clock when suspicion began (diagnostic; the commit-wait
  /// math uses the timetable, not this field).
  Timestamp since = kMinTimestamp;

  friend bool operator==(const Suspicion& a, const Suspicion& b) {
    return a.target == b.target && a.since == b.since;
  }
};

/// What an envelope is for. Regular gossip carries the periodic partial
/// log; the catch-up kinds implement the anti-entropy phase a recovering
/// datacenter runs after rebuilding from its WAL (it sends its restored
/// timetable to every peer and each peer answers with exactly the log
/// suffix the table proves the requester is missing). An ack is the
/// receipt acknowledgment of Rule 3 (f > 0 only): the partial log a node
/// sends back at once to a peer whose gossip carried fresh preparing
/// records of that peer's own, instead of waiting for its next tick. It
/// promises nothing new, and it is itself never acknowledged.
enum class EnvelopeKind : uint8_t {
  kGossip = 0,
  kCatchupRequest = 1,
  kCatchupResponse = 2,
  kAck = 3,
};

/// One Helios-to-Helios message.
struct Envelope {
  rdict::LogMessage log;
  /// All live refusals the sender knows about (rare; garbage-collected
  /// when the transaction finishes).
  std::vector<Refusal> refusals;

  /// Role of this envelope (gossip, ack or recovery catch-up). On the wire
  /// the field is a trailing optional: omitted for kGossip, so regular
  /// traffic's byte layout (and measured message sizes) are unchanged.
  EnvelopeKind kind = EnvelopeKind::kGossip;

  /// Gray-failure suspicions the sender currently holds (src/health).
  /// Also a trailing optional on the wire — empty (the overwhelmingly
  /// common case) costs zero bytes, keeping healthy traffic unchanged.
  std::vector<Suspicion> suspicions;

  /// The sender's latest sample of the apparent one-way delay δ(receiver
  /// → sender) in microseconds: how long the receiver's last gossip took
  /// to reach the sender, measured on the sender's clock against the
  /// receiver's send stamp, so it includes the two clocks' offset and may
  /// be negative. Set on gossip once the sender has a sample
  /// (ClockDiscipline); a trailing optional on the wire, absent otherwise.
  std::optional<Duration> apparent_delay_us;

  explicit Envelope(int n) : log(n) {}

  /// Returns a recycled envelope (common::ObjectPool) to a blank gossip
  /// state while keeping every vector's capacity — the reuse contract of
  /// the pooled send path. The timetable is left as-is; builders
  /// overwrite it (same cluster size, so that assignment is also
  /// allocation-free).
  void ResetForReuse() {
    log.from = kInvalidDc;
    log.records.clear();
    refusals.clear();
    kind = EnvelopeKind::kGossip;
    suspicions.clear();
    apparent_delay_us.reset();
  }
};

/// How envelopes travel: built once by the sender (usually from a pool),
/// then shared immutably by the network, retransmission buffers, and the
/// receiver's service queue — no per-hop deep copies.
using EnvelopePtr = std::shared_ptr<const Envelope>;

}  // namespace helios::core

#endif  // HELIOS_CORE_ENVELOPE_H_
