#include "ledger.h"

#include <map>
#include <utility>

namespace helios::perfbench {
namespace {

struct ServerSpans {
  int queues = 0;
  int waits = 0;
  int servers = 0;
  const obs::TraceEvent* queue = nullptr;
  const obs::TraceEvent* wait = nullptr;
  const obs::TraceEvent* server = nullptr;
};

int64_t End(const obs::TraceEvent& e) { return e.ts_us + e.dur_us; }

}  // namespace

StageLedger BuildLedger(const std::vector<obs::TraceEvent>& events,
                        int64_t window_from_us, int64_t window_until_us,
                        const std::vector<double>& optimal_ms) {
  std::map<std::pair<DcId, TxnId>, ServerSpans> server;
  for (const obs::TraceEvent& e : events) {
    if (e.dur_us < 0) continue;
    ServerSpans* s = nullptr;
    switch (e.kind) {
      case obs::EventKind::kTxnQueue:
        s = &server[{e.dc, e.txn}];
        ++s->queues;
        s->queue = &e;
        break;
      case obs::EventKind::kCommitWait:
        s = &server[{e.dc, e.txn}];
        ++s->waits;
        s->wait = &e;
        break;
      case obs::EventKind::kTxnServer:
        s = &server[{e.dc, e.txn}];
        ++s->servers;
        s->server = &e;
        break;
      default:
        break;
    }
  }

  StageLedger out;
  for (const obs::TraceEvent& c : events) {
    if (c.kind != obs::EventKind::kClientCommit || c.detail != "committed") {
      continue;
    }
    if (c.ts_us < window_from_us || c.ts_us >= window_until_us) continue;
    ++out.window_commits;
    const auto it = server.find({c.dc, c.txn});
    if (it == server.end()) continue;
    const ServerSpans& s = it->second;
    if (s.queues != 1 || s.waits != 1 || s.servers != 1) continue;
    ++out.covered;
    const int64_t uplink = s.queue->ts_us - c.ts_us;
    const int64_t queue = s.queue->dur_us;
    const int64_t pre_wait = s.wait->ts_us - End(*s.queue);
    const int64_t wait = s.wait->dur_us;
    const int64_t decide = End(*s.server) - End(*s.wait);
    const int64_t downlink = End(c) - End(*s.server);
    const bool negative = uplink < 0 || pre_wait < 0 || decide < 0 ||
                          downlink < 0;
    // Both server spans start at the request's arrival.
    if (negative || s.queue->ts_us != s.server->ts_us ||
        uplink + queue + pre_wait + wait + decide + downlink != c.dur_us) {
      ++out.residual;
      continue;
    }
    out.uplink_us.Add(static_cast<double>(uplink));
    out.queue_us.Add(static_cast<double>(queue));
    out.pre_wait_us.Add(static_cast<double>(pre_wait));
    out.commit_wait_us.Add(static_cast<double>(wait));
    out.decide_us.Add(static_cast<double>(decide));
    out.downlink_us.Add(static_cast<double>(downlink));
    out.over_mao_us.Add(static_cast<double>(c.dur_us) -
                        optimal_ms[static_cast<size_t>(c.dc)] * 1000.0);
  }
  return out;
}

}  // namespace helios::perfbench
