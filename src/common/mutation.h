// In-process mutation seam for the src/check mutation tests.
//
// A mutation is a deliberately seeded bug the invariant oracles must catch
// — proof that they have teeth. The code that would hold the bug asks
// ActiveMutation() at exactly that point; only a test ever arms one
// (SetMutation in its SetUp, back to kNone in its TearDown). Nothing else
// — no flag, config field or environment variable — reaches this seam, so
// a measurement process always runs with kNone.

#ifndef HELIOS_COMMON_MUTATION_H_
#define HELIOS_COMMON_MUTATION_H_

#include <atomic>

namespace helios::common {

enum class Mutation {
  kNone,
  /// HeliosNode skips the Section 3 commit wait (Rule 2 / Rule 3
  /// condition 1), so transactions commit before learning about
  /// concurrent conflicting remote transactions.
  kSkipCommitWait,
  /// HeliosCluster's cross-shard recovery resolver skips the durable
  /// status lookup and re-finalizes every staged intent as committed.
  kSkipStagedResolution,
};

namespace internal {
inline std::atomic<Mutation> active_mutation{Mutation::kNone};
}  // namespace internal

inline void SetMutation(Mutation m) { internal::active_mutation.store(m); }

inline Mutation ActiveMutation() { return internal::active_mutation.load(); }

}  // namespace helios::common

#endif  // HELIOS_COMMON_MUTATION_H_
