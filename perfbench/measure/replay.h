// Layer replay: a finished run's durable journals are fed through the
// public calls of the store, txn, rdict, wire and wal layers, and every call
// is timed on the wall clock. This prices each layer's CPU cost on the
// run's real record stream without adding tracing inside src/.
//
//  * store  — one MvStore per datacenter: Read and ApplyTxn per committed
//             record, ReadAt one tick below its version, and
//             TruncateVersionsBefore(now - 10 s) every GC interval of record
//             time, as the node does. Fidelity: the replayed latest versions
//             must equal the run's end-of-run store, and every journal
//             record must have been fed.
//  * txn    — one TxnPool per (shard, datacenter): ConflictingWriters +
//             Victims and Add per preparing record, Remove per finished one.
//  * rdict  — one ReplicatedLog per datacenter and shard, fed each origin's
//             own records in timestamp order; every log interval each log
//             builds a partial log for every peer, which is ingested RTT/2
//             later; GarbageCollect every GC interval.
//  * wire   — every partial log of the rdict replay is framed as an
//             envelope and unframed again; the decoded record count must
//             match.
//  * wal    — every journal is appended to a fresh group-commit FileWal,
//             synced every GC interval of record time, and recovered again;
//             the recovered record count must match.
//  * lp     — lp::SolveMao on the run's RTT matrix, repeated for half a
//             second: the planning cost every set-up pays.

#ifndef HELIOS_PERFBENCH_REPLAY_H_
#define HELIOS_PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "lp/mao.h"
#include "report.h"
#include "store/mv_store.h"
#include "wal/wal_sink.h"

namespace helios::perfbench {

struct ReplayInput {
  /// planes[s][dc]: the journal of shard s at datacenter dc (one plane for
  /// unsharded deployments).
  std::vector<std::vector<const wal::WalContents*>> planes;
  /// Latest version of every key in each datacenter's store at the end of
  /// the run (all shards merged).
  std::vector<std::map<Key, VersionedValue>> stores;
  lp::RttMatrix rtt{1};
  Duration log_interval = Millis(10);
  Duration gc_interval = Millis(500);
  /// Scratch directory for the WAL replay's files.
  std::string tmp_dir;
  /// Wall time of the untraced run, the base of the *.replay_share metrics.
  double run_wall_s = 0.0;
};

/// Runs every replay and adds its metrics to `report`. Returns an error,
/// adding nothing, when a fidelity check fails.
Status RunReplays(const ReplayInput& in, Report* report);

}  // namespace helios::perfbench

#endif  // HELIOS_PERFBENCH_REPLAY_H_
