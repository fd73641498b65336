// Commit-stage ledger built from a traced simulator run.
//
// For every committed transaction whose commit request falls in the
// measurement window, the ledger joins the client.commit span with the
// server-side txn.queue, txn.commit_wait and txn.server spans of the same
// (datacenter, transaction id) and splits the client-observed latency into
// six stages that telescope to it exactly:
//
//   uplink     client.commit start -> txn.queue start (client link)
//   queue      txn.queue            (service-queue wait + processing)
//   pre_wait   txn.queue end        -> txn.commit_wait start
//   commit_wait txn.commit_wait     (Rule 2/3 wait)
//   decide     txn.commit_wait end  -> txn.server end
//   downlink   txn.server end       -> client.commit end
//
// A cross-shard commit has one set of server spans per participant shard
// and its decision is taken by the coordinator, which records no span; it
// carries no single-plane ledger and counts against coverage.

#ifndef HELIOS_PERFBENCH_LEDGER_H_
#define HELIOS_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/trace.h"

namespace helios::perfbench {

struct StageLedger {
  Distribution uplink_us;
  Distribution queue_us;
  Distribution pre_wait_us;
  Distribution commit_wait_us;
  Distribution decide_us;
  Distribution downlink_us;
  /// Client-observed latency minus the MAO optimum of the home datacenter.
  Distribution over_mao_us;
  uint64_t window_commits = 0;  ///< Committed client.commit spans in window.
  uint64_t covered = 0;         ///< ... that carry all six stages.
  /// Covered commits whose stages are negative or do not sum to the
  /// client.commit span. Must be zero.
  uint64_t residual = 0;

  double coverage() const {
    return window_commits == 0
               ? 0.0
               : static_cast<double>(covered) /
                     static_cast<double>(window_commits);
  }
};

/// `optimal_ms[dc]` is the MAO latency of datacenter dc.
StageLedger BuildLedger(const std::vector<obs::TraceEvent>& events,
                        int64_t window_from_us, int64_t window_until_us,
                        const std::vector<double>& optimal_ms);

}  // namespace helios::perfbench

#endif  // HELIOS_PERFBENCH_LEDGER_H_
