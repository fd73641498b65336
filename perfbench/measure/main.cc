// perfbench: the commit-latency benchmark's measuring program. run.py builds
// and drives it; README.md describes the workloads and metrics.
//
//   perfbench <check|timed|trace|live> --workload <name> --seed <n>
//             --seconds <s> --tmp <dir> [--scale tiny] [--trace 0|1]
//             [--max_inflight <k>]
//
// Prints report lines (report.h) on stdout and exits 0, or prints the
// failed check on stderr and exits 1 with no report.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "live_bench.h"
#include "report.h"
#include "sim_bench.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench <check|timed|trace|live> "
               "--workload <name> --seed <n> --seconds <s> --tmp <dir> "
               "[--scale tiny] [--trace 0|1] [--max_inflight <k>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace helios::perfbench;
  if (argc < 2) return Usage("missing mode");
  const std::string mode = argv[1];
  std::string workload;
  std::string tmp;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool seed_set = false;
  Scale scale = Scale::kFull;
  bool trace = false;
  uint64_t max_inflight = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      seed_set = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--tmp") {
      tmp = value;
    } else if (flag == "--scale") {
      if (value != "tiny" && value != "full") return Usage("bad --scale");
      scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--max_inflight") {
      max_inflight = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!IsKnownWorkload(workload)) return Usage("unknown --workload");
  if (!seed_set || seconds <= 0.0 || tmp.empty()) {
    return Usage("--seed, --seconds and --tmp are required");
  }

  Report report;
  helios::Status st;
  if (mode == "live") {
    if (workload != kLiveVoc) return Usage("mode live runs live-voc only");
    st = RunLive({seed, seconds, scale, tmp, trace, max_inflight}, &report);
  } else {
    if (!IsSimWorkload(workload)) return Usage("not a simulator workload");
    const SimOptions opt{workload, seed, seconds, scale, tmp};
    if (mode == "check") {
      st = RunSimCheck(opt, &report);
    } else if (mode == "timed") {
      st = RunSimTimed(opt, &report);
    } else if (mode == "trace") {
      st = RunSimTrace(opt, &report);
    } else {
      return Usage("unknown mode");
    }
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  report.Print();
  return 0;
}
