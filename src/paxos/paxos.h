// Multi-decree Paxos with a stable-leader lease, used by the 2PC/Paxos
// comparison baseline, which replicates the coordinator's commit log
// through it ("the coordinator is assumed to have a lease so that it will
// not need to go through the leader election phase"). Replicated
// Commit's accept round is its own majority vote
// (baselines/replicated_commit.h) and uses none of this code.
//
// The implementation is a classic two-phase protocol per slot:
//   phase 1  Prepare(n) / Promise(n, accepted)   — skipped under the lease
//   phase 2  Accept(n, v) / Accepted(n)
// A value is *chosen* once a majority of acceptors accepted it under the
// same proposal. Safety (only one value ever chosen per slot, even with
// dueling proposers) is unit-tested in tests/paxos_test.cc.

#ifndef HELIOS_PAXOS_PAXOS_H_
#define HELIOS_PAXOS_PAXOS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace helios::paxos {

/// Totally ordered proposal number: (round, proposer id).
struct ProposalId {
  uint64_t round = 0;
  DcId proposer = kInvalidDc;

  friend bool operator<(const ProposalId& a, const ProposalId& b) {
    if (a.round != b.round) return a.round < b.round;
    return a.proposer < b.proposer;
  }
  friend bool operator==(const ProposalId& a, const ProposalId& b) {
    return a.round == b.round && a.proposer == b.proposer;
  }
  friend bool operator<=(const ProposalId& a, const ProposalId& b) {
    return a < b || a == b;
  }
};

/// Opaque replicated payload. Baselines serialize their transaction
/// decisions into it.
using PaxosValue = std::string;

using SlotId = uint64_t;

// --- Wire messages ----------------------------------------------------------

struct PrepareRequest {
  SlotId slot = 0;
  ProposalId id;
};

struct PrepareReply {
  SlotId slot = 0;
  ProposalId id;             ///< Echo of the prepared proposal.
  bool promised = false;     ///< False: a higher proposal was seen.
  bool has_accepted = false;
  ProposalId accepted_id;
  PaxosValue accepted_value;
};

struct AcceptRequest {
  SlotId slot = 0;
  ProposalId id;
  PaxosValue value;
};

struct AcceptReply {
  SlotId slot = 0;
  ProposalId id;
  bool accepted = false;
};

// --- Acceptor ---------------------------------------------------------------

/// Per-node acceptor state over all slots.
class Acceptor {
 public:
  PrepareReply OnPrepare(const PrepareRequest& req);
  AcceptReply OnAccept(const AcceptRequest& req);

  /// True if this acceptor has accepted anything in `slot`.
  bool HasAccepted(SlotId slot) const;
  /// Accepted value for `slot`, if any.
  std::optional<PaxosValue> AcceptedValue(SlotId slot) const;

 private:
  struct SlotState {
    ProposalId promised;
    bool has_accepted = false;
    ProposalId accepted_id;
    PaxosValue accepted_value;
  };
  std::unordered_map<SlotId, SlotState> slots_;
};

// --- Proposer / replicator ---------------------------------------------------

/// Drives replication of a sequence of values from one node. Transport is
/// injected: `broadcast(peer, make_request)` must deliver requests to peer
/// acceptors and route replies back via the On*Reply methods.
///
/// With `lease` enabled (the 2PC/Paxos configuration), the proposer owns
/// round 1 for every slot and starts directly with Accept — one WAN round
/// trip to a majority per value. Without the lease it runs both phases.
class Replicator {
 public:
  using SendPrepare = std::function<void(DcId peer, const PrepareRequest&)>;
  using SendAccept = std::function<void(DcId peer, const AcceptRequest&)>;
  /// Called exactly once per slot when its value is chosen.
  using ChosenCallback = std::function<void(SlotId, const PaxosValue&)>;

  /// `self_acceptor` is this node's own acceptor (votes locally for free).
  Replicator(DcId self, int n, bool lease, Acceptor* self_acceptor,
             SendPrepare send_prepare, SendAccept send_accept);

  /// Starts replicating `value` in the next slot; `chosen` fires when a
  /// majority accepted. Returns the slot.
  SlotId Replicate(PaxosValue value, ChosenCallback chosen);

  void OnPrepareReply(DcId from, const PrepareReply& reply);
  void OnAcceptReply(DcId from, const AcceptReply& reply);

  int majority() const { return n_ / 2 + 1; }
  SlotId next_slot() const { return next_slot_; }

 private:
  struct InFlight {
    ProposalId id;
    PaxosValue value;
    ChosenCallback chosen;
    int promises = 0;
    int accepts = 0;
    bool phase2 = false;
    bool done = false;
    // Highest already-accepted value reported during phase 1; Paxos obliges
    // the proposer to adopt it.
    bool saw_accepted = false;
    ProposalId best_accepted_id;
    PaxosValue best_accepted_value;
  };

  void StartPhase1(SlotId slot);
  void StartPhase2(SlotId slot);

  DcId self_;
  int n_;
  bool lease_;
  Acceptor* self_acceptor_;
  SendPrepare send_prepare_;
  SendAccept send_accept_;
  SlotId next_slot_ = 0;
  uint64_t next_round_ = 1;
  std::map<SlotId, InFlight> in_flight_;
};

}  // namespace helios::paxos

#endif  // HELIOS_PAXOS_PAXOS_H_
