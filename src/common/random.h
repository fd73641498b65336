// Deterministic pseudo-random number generation used throughout the
// simulator. All experiments are reproducible given a seed.

#ifndef HELIOS_COMMON_RANDOM_H_
#define HELIOS_COMMON_RANDOM_H_

#include <cstdint>

namespace helios {

/// A small, fast, deterministic PRNG (xoshiro256**), seeded via SplitMix64.
///
/// Satisfies the UniformRandomBitGenerator requirements so it can also drive
/// standard distributions, though the convenience members below are the
/// preferred interface.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  uint64_t Next();
  result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal deviate (Box-Muller, cached pair).
  double NextGaussian();

  /// Normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli trial with probability `p` of returning true.
  bool Bernoulli(double p);

  /// Derives an independent child generator; convenient for giving each
  /// simulated component its own stream.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// YCSB-style Zipfian generator over [0, n). Uses the Gray et al. algorithm
/// with precomputed zeta constants, matching the distribution T-YCSB uses to
/// pick keys from its 50,000-key pool.
class ZipfianGenerator {
 public:
  /// `theta` is the skew parameter; YCSB's default is 0.99.
  ZipfianGenerator(uint64_t n, double theta = 0.99);

  /// Next item in [0, n), lower values being more popular.
  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  /// Sum of 1/i^theta for i in [1, n], computed once per (n, theta) per
  /// process and shared by every generator (thread-safe).
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

/// Uniform generator over [0, n) with the same interface as
/// ZipfianGenerator, for workloads without skew.
class UniformKeyGenerator {
 public:
  explicit UniformKeyGenerator(uint64_t n) : n_(n) {}
  uint64_t Next(Rng& rng) { return rng.Uniform(n_); }

 private:
  uint64_t n_;
};

}  // namespace helios

#endif  // HELIOS_COMMON_RANDOM_H_
