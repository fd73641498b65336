// bank_audit: serializable money transfers with a concurrent snapshot
// auditor.
//
// Accounts live at five datacenters; clients in every region transfer
// money between random accounts with read-modify-write transactions. An
// auditor in another region continuously runs read-only snapshot
// transactions (Appendix B) over ALL accounts and asserts the invariant
// that money is conserved — which only holds if (a) transfers are atomic
// and (b) the snapshot is consistent. A single torn transfer or a
// non-atomic snapshot would show up as a wrong total.
//
//   $ ./build/examples/bank_audit

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "common/random.h"
#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace helios;

namespace {

constexpr int kAccounts = 100;
constexpr long kInitialBalance = 1000;

std::string Account(int i) { return "acct/" + std::to_string(i); }

}  // namespace

int main() {
  const harness::Topology topo = harness::Table2Topology();
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, topo.size(), /*seed=*/4242);
  harness::ConfigureNetwork(topo, &network);

  core::HeliosConfig config;
  config.num_datacenters = topo.size();
  config.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  core::HeliosCluster cluster(&scheduler, &network, std::move(config));
  InitialRows accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.emplace_back(Account(i), std::to_string(kInitialBalance));
  }
  cluster.LoadInitialAll(accounts);
  cluster.Start();

  auto rng = std::make_shared<Rng>(17);
  auto transfers_done = std::make_shared<int>(0);
  auto transfers_aborted = std::make_shared<int>(0);

  // Transfer loop: read two accounts, move a random amount between them.
  auto transfer = std::make_shared<std::function<void(DcId)>>();
  *transfer = [&, rng, transfer, transfers_done, transfers_aborted](DcId dc) {
    if (scheduler.Now() > Seconds(15)) return;
    const int from = static_cast<int>(rng->Uniform(kAccounts));
    int to = static_cast<int>(rng->Uniform(kAccounts));
    if (to == from) to = (to + 1) % kAccounts;
    cluster.ClientRead(dc, Account(from), [&, rng, transfer, transfers_done,
                                           transfers_aborted, dc, from,
                                           to](Result<VersionedValue> rf) {
      if (!rf.ok()) return;
      cluster.ClientRead(dc, Account(to), [&, rng, transfer, transfers_done,
                                           transfers_aborted, dc, from, to,
                                           rf](Result<VersionedValue> rt) {
        if (!rt.ok()) return;
        const long bal_from = std::atol(rf.value().value.c_str());
        const long bal_to = std::atol(rt.value().value.c_str());
        const long amount =
            std::min<long>(bal_from, 1 + static_cast<long>(rng->Uniform(50)));
        std::vector<ReadEntry> reads = {
            {Account(from), rf.value().ts, rf.value().writer},
            {Account(to), rt.value().ts, rt.value().writer}};
        std::vector<WriteEntry> writes = {
            {Account(from), std::to_string(bal_from - amount)},
            {Account(to), std::to_string(bal_to + amount)}};
        cluster.ClientCommit(dc, std::move(reads), std::move(writes),
                             [&, transfer, transfers_done, transfers_aborted,
                              dc](const CommitOutcome& o) {
                               ++(o.committed ? *transfers_done
                                              : *transfers_aborted);
                               (*transfer)(dc);
                             });
      });
    });
  };
  for (DcId dc = 0; dc < topo.size(); ++dc) {
    for (int c = 0; c < 2; ++c) {
      scheduler.At(Millis(1 + c), [transfer, dc] { (*transfer)(dc); });
    }
  }

  // Auditor at Ireland: snapshot-read every account, check conservation.
  auto audits = std::make_shared<int>(0);
  auto violations = std::make_shared<int>(0);
  auto audit = std::make_shared<std::function<void()>>();
  *audit = [&, audit, audits, violations] {
    if (scheduler.Now() > Seconds(16)) return;
    std::vector<Key> keys;
    for (int i = 0; i < kAccounts; ++i) keys.push_back(Account(i));
    cluster.ClientReadOnly(
        3, keys,
        [&, audit, audits, violations](std::vector<Result<VersionedValue>> rows) {
          long total = 0;
          for (const auto& row : rows) {
            if (row.ok()) total += std::atol(row.value().value.c_str());
          }
          ++*audits;
          const long expected = static_cast<long>(kAccounts) * kInitialBalance;
          if (total != expected) {
            ++*violations;
            std::printf("[%5.2fs] AUDIT VIOLATION: total %ld != %ld\n",
                        static_cast<double>(scheduler.Now()) / 1e6, total,
                        expected);
          } else if (*audits % 20 == 1) {
            std::printf("[%5.2fs] audit #%d OK: total = %ld\n",
                        static_cast<double>(scheduler.Now()) / 1e6, *audits,
                        total);
          }
          scheduler.After(Millis(200), *audit);
        });
  };
  scheduler.At(Millis(300), *audit);

  scheduler.RunUntil(Seconds(18));

  std::printf(
      "\n%d transfers committed, %d aborted (retried), %d audits, "
      "%d violations\n",
      *transfers_done, *transfers_aborted, *audits, *violations);
  if (*violations == 0 && *audits > 10 && *transfers_done > 100) {
    std::printf(
        "money was conserved under every concurrent snapshot — transfers "
        "are atomic\nand read-only transactions see consistent states "
        "(Appendix B).\n");
    return 0;
  }
  std::printf("UNEXPECTED RESULT\n");
  return 1;
}
