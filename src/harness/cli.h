// Shared CLI surface for the tools and benches (helios_sim, helios_fuzz,
// the figure benches): one place for the flag names every tool
// spells the same way (--jobs, --json_out, --seeds, --protocols), the CSV
// list parsers each binary used to hand-roll, and the common
// parse/help/exit choreography.
//
// Exit-code contract (uniform across tools):
//   0  success (including --help)
//   1  runtime failure: a run/sweep failed, an invariant was violated, or
//      an output file could not be written
//   2  usage error: unknown or malformed flags, unparseable list entries,
//      invalid spec inputs
//
// List parsing is strict: every entry must consume fully ("1,2x,3" is an
// error, not a silent 2) — CLI input is audited the same way spec JSON is.

#ifndef HELIOS_HARNESS_CLI_H_
#define HELIOS_HARNESS_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/types.h"
#include "harness/experiment.h"

namespace helios::harness::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;

/// Splits on commas; no trimming, empty segments preserved ("a,,b" yields
/// three entries). An empty input yields an empty list.
std::vector<std::string> SplitCsv(const std::string& csv);

/// "helios0,mf,2pc" -> protocols. Accepts the same spellings as
/// ParseProtocolToken. Empty input or an unknown token is an error.
Result<std::vector<Protocol>> ParseProtocolList(const std::string& csv);

/// "1,2,3" -> seeds; every entry must be a full unsigned integer.
Result<std::vector<uint64_t>> ParseSeedList(const std::string& csv);

/// "0.01,0.1" -> doubles; every entry must be a full number.
Result<std::vector<double>> ParseDoubleList(const std::string& csv);

/// "100,0,-50" -> per-entry Millis(...) durations (clock-skew vectors).
Result<std::vector<Duration>> ParseMillisList(const std::string& csv);

Result<std::string> ReadWholeFile(const std::string& path);
Status WriteWholeFile(const std::string& path, const std::string& content);

/// Declares the flags every tool shares, with the shared spellings:
///   --jobs      concurrent jobs (default per tool; 0 = one per core)
///   --json_out  deterministic JSON results document
///   --help
void AddCommonFlags(FlagSet* flags, int default_jobs);

/// Parses argv against `flags`. On --help prints usage and exits kExitOk;
/// on a parse error prints the error plus usage and exits kExitUsage.
/// Returns only on a successful parse.
void ParseOrExit(FlagSet* flags, int argc, char** argv);

/// Prints `status` (when not OK) to stderr and returns `exit_code`; sugar
/// for the `if (!s.ok()) { print; return 2; }` ladders in main().
int FailWith(const Status& status, int exit_code);

}  // namespace helios::harness::cli

#endif  // HELIOS_HARNESS_CLI_H_
