// Proves the retransmission path never re-encodes: the cluster's
// envelope sizer (the stand-in for wire encoding on the simulated WAN)
// runs exactly once per logical send, even when a lossy network forces
// its reliable sessions to retransmit many of those sends. Before the
// cached-buffer fix, every retransmission re-measured (and a deployment
// would have re-encoded) its message.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/helios_cluster.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "wire/serialization.h"

namespace helios::core {
namespace {

TEST(RetransmitPathTest, SizerRunsOncePerLogicalSendDespiteRetransmits) {
  const int n = 3;
  const uint64_t seed = 424242;

  sim::Scheduler scheduler;
  sim::Network network(&scheduler, n, seed);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      network.SetRtt(a, b, Millis(30), Millis(2));
    }
  }

  // Heavy loss for the whole run: plenty of retransmissions.
  sim::FaultPlan plan;
  sim::LinkFault lf;
  lf.loss = 0.30;
  lf.active_until = Seconds(60);
  plan.AddLinkFault(lf);
  ASSERT_TRUE(network.InstallMessageFaults(plan, seed ^ 0xFA171).ok());
  network.EnableReliableSessions();

  HeliosConfig cfg;
  cfg.num_datacenters = n;
  cfg.log_interval = Millis(5);
  HeliosCluster cluster(&scheduler, &network, cfg);

  uint64_t sizer_calls = 0;
  cluster.set_envelope_sizer([&sizer_calls](const Envelope& env) {
    ++sizer_calls;
    return wire::EncodedEnvelopeSize(env);
  });

  for (int k = 0; k < 10; ++k) {
    cluster.LoadInitialAll("key" + std::to_string(k), "init");
  }
  cluster.Start();

  // Closed-loop writers at every datacenter keep log records (not just
  // heartbeats) flowing through the lossy links.
  auto commits = std::make_shared<uint64_t>(0);
  auto loop = std::make_shared<std::function<void(DcId, int)>>();
  *loop = [&, commits, loop](DcId dc, int i) {
    if (scheduler.Now() > Seconds(8)) return;
    cluster.ClientCommit(dc, {},
                         {{"key" + std::to_string((dc + i) % 10), "v"}},
                         [&, commits, loop, dc, i](const CommitOutcome& o) {
                           if (o.committed) ++*commits;
                           (*loop)(dc, i + 1);
                         });
  };
  for (DcId dc = 0; dc < n; ++dc) {
    scheduler.At(Millis(dc + 1), [loop, dc] { (*loop)(dc, 0); });
  }
  scheduler.RunUntil(Seconds(10));
  *loop = nullptr;  // Breaks the closure's reference to itself.

  // The run must actually have exercised the retransmission machinery
  // and committed through it.
  EXPECT_GT(*commits, 0u);
  ASSERT_GT(network.retransmits(), 0u);

  // The invariant under test: sizing (== encoding in a deployment)
  // happened once per logical envelope send. Retransmissions reuse the
  // cached size and shared EnvelopePtr, so the counts match exactly even
  // though the wire carried far more transmissions.
  EXPECT_EQ(sizer_calls, cluster.AggregateCounters().envelopes_sent);
}

}  // namespace
}  // namespace helios::core
