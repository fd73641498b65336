// Unit suite for the phi-accrual math in src/health: monotone phi under
// silence, no false positives under jittered-but-regular heartbeats, and
// bit-for-bit determinism given seeded arrival sequences.

#include "health/phi_detector.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/types.h"

namespace helios::health {
namespace {

// Feeds `count` arrivals at a fixed cadence starting at t=0; returns the
// time of the last arrival.
int64_t FeedRegular(PhiDetector* d, int64_t period, int count) {
  int64_t t = 0;
  for (int i = 0; i < count; ++i) {
    d->Arrival(t);
    t += period;
  }
  return t - period;
}

TEST(PhiDetector, SilentBeforeFirstArrival) {
  PhiDetector d;
  EXPECT_EQ(d.Phi(0), 0.0);
  EXPECT_EQ(d.Phi(Seconds(100)), 0.0);
  EXPECT_FALSE(d.Suspected(Seconds(100)));
}

TEST(PhiDetector, PhiIsMonotoneUnderSilence) {
  PhiDetector d;
  const int64_t last = FeedRegular(&d, Millis(10), 40);
  double prev = d.Phi(last);
  for (int64_t t = last; t <= last + Seconds(2); t += Millis(5)) {
    const double phi = d.Phi(t);
    EXPECT_GE(phi, prev) << "phi regressed at t=" << t;
    prev = phi;
  }
  // Two seconds of silence after a steady 10 ms heartbeat is overwhelming
  // evidence, far beyond any sane threshold.
  EXPECT_GT(prev, 16.0);
}

TEST(PhiDetector, FreshArrivalResetsSuspicion) {
  PhiDetector d;
  const int64_t last = FeedRegular(&d, Millis(10), 40);
  ASSERT_TRUE(d.Suspected(last + Seconds(1)));
  d.Arrival(last + Seconds(1));
  EXPECT_FALSE(d.Suspected(last + Seconds(1) + Millis(1)));
  EXPECT_LT(d.Phi(last + Seconds(1) + Millis(1)), 1.0);
}

TEST(PhiDetector, NoFalsePositiveUnderJitteredHeartbeats) {
  // Heartbeats every 10 ms +- up to 40% jitter: the detector must ride
  // through the jitter without ever reaching the suspicion threshold when
  // queried right before each (late) arrival.
  PhiDetector d;
  Rng rng(1234);
  int64_t t = 0;
  double max_phi = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const int64_t jitter =
        static_cast<int64_t>(rng.Uniform(8000)) - 4000;  // [-4ms, +4ms)
    const int64_t next = t + Millis(10) + jitter;
    if (i > 50) max_phi = std::max(max_phi, d.Phi(next));
    d.Arrival(next);
    t = next;
  }
  EXPECT_LT(max_phi, kPhiThreshold);
}

TEST(PhiDetector, SlowerCadenceNeedsProportionallyLongerSilence) {
  // The detector adapts to the observed cadence: the silence needed to
  // reach a given phi scales with the link's real heartbeat period.
  PhiDetector fast;
  PhiDetector slow;
  const int64_t f_last = FeedRegular(&fast, Millis(10), 64);
  const int64_t s_last = FeedRegular(&slow, Millis(100), 64);
  // 300 ms of silence: many periods for the fast link, three for the slow.
  EXPECT_GT(fast.Phi(f_last + Millis(300)), slow.Phi(s_last + Millis(300)));
  EXPECT_FALSE(slow.Suspected(s_last + Millis(150)));
}

TEST(PhiDetector, DeterministicGivenSeededArrivalSequence) {
  // Identical arrival sequences produce bit-identical phi trajectories —
  // the property the simulator's reproducibility discipline rests on.
  auto run = [](uint64_t seed) {
    PhiDetector d;
    Rng rng(seed);
    std::vector<double> phis;
    int64_t t = 0;
    for (int i = 0; i < 500; ++i) {
      t += Millis(5) + static_cast<int64_t>(rng.Uniform(10000));
      phis.push_back(d.Phi(t));
      d.Arrival(t);
    }
    phis.push_back(d.Phi(t + Seconds(1)));
    return phis;
  };
  const std::vector<double> a = run(99);
  const std::vector<double> b = run(99);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "diverged at sample " << i;
  }
  // A different seed must actually change the trajectory (the test above
  // would pass vacuously if phi ignored the arrivals).
  EXPECT_NE(run(99), run(100));
}

TEST(PhiDetector, BootstrapBeforeMinSamples) {
  PhiDetector d;
  d.Arrival(0);
  // One arrival = zero intervals: the bootstrap mean governs, so a silence
  // of a few bootstrap periods is already suspicious but a short one is not.
  EXPECT_EQ(d.MeanInterval(), static_cast<double>(kPhiBootstrapInterval));
  EXPECT_LT(d.Phi(kPhiBootstrapInterval * 2 / 5), 1.0);
  EXPECT_GT(d.Phi(kPhiBootstrapInterval * 40), kPhiThreshold);
  // Up to kPhiMinSamples intervals the bootstrap still governs.
  for (int i = 1; i < kPhiMinSamples; ++i) d.Arrival(Millis(10) * i);
  EXPECT_EQ(d.MeanInterval(), static_cast<double>(kPhiBootstrapInterval));
  d.Arrival(Millis(10) * kPhiMinSamples);
  EXPECT_EQ(d.MeanInterval(), static_cast<double>(Millis(10)));
}

TEST(PhiDetector, WindowEvictsOldSamples) {
  PhiDetector d;
  // Old slow cadence fully evicted by a newer fast one.
  int64_t t = 0;
  for (int i = 0; i < kPhiWindow; ++i) {
    d.Arrival(t);
    t += Millis(100);
  }
  for (int i = 0; i < kPhiWindow + 1; ++i) {
    d.Arrival(t);
    t += Millis(10);
  }
  EXPECT_EQ(d.samples(), kPhiWindow);
  EXPECT_NEAR(d.MeanInterval(), static_cast<double>(Millis(10)), 1.0);
}

TEST(PeerHealth, TracksPeersIndependentlyAndIgnoresSelf) {
  PeerHealth h(3, /*self=*/0);
  for (int i = 0; i < 40; ++i) {
    h.OnArrival(1, Millis(10) * i);
    h.OnArrival(2, Millis(10) * i);
  }
  const int64_t now = Millis(10) * 39;
  // Peer 1 goes silent; peer 2 keeps talking.
  for (int i = 40; i < 140; ++i) h.OnArrival(2, Millis(10) * i);
  const int64_t later = Millis(10) * 139;
  EXPECT_TRUE(h.Suspected(1, later));
  EXPECT_FALSE(h.Suspected(2, later));
  EXPECT_EQ(h.Phi(0, later), 0.0);  // Never suspects itself.
  EXPECT_GT(h.Phi(1, later), h.Phi(1, now));
}

}  // namespace
}  // namespace helios::health
