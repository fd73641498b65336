// Output protocol and measurement helpers shared by every perfbench mode.
//
// A mode fills one Report and prints it as tab-separated lines on stdout:
//
//   metric <name> <unit> <value|absent>
//   count <name> <value>
//   fingerprint <text>
//
// run.py parses these lines, compares fingerprints across processes and
// assembles the final JSON result. A metric that does not apply to a
// workload is printed as "absent", never as zero.

#ifndef HELIOS_PERFBENCH_REPORT_H_
#define HELIOS_PERFBENCH_REPORT_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace helios::perfbench {

class Report {
 public:
  void Set(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  void Absent(const std::string& name, const std::string& unit) {
    metrics_.push_back({name, unit, std::nullopt});
  }
  /// p50 and p99 of `d` as "<name>.p50" / "<name>.p99"; absent when empty.
  void SetQuantiles(const std::string& name, const std::string& unit,
                    const Distribution& d) {
    for (const auto& [suffix, p] : {std::pair{".p50", 50.0}, {".p99", 99.0}}) {
      if (d.count() == 0) {
        Absent(name + suffix, unit);
      } else {
        Set(name + suffix, unit, d.Percentile(p));
      }
    }
  }
  void Count(const std::string& name, uint64_t value) {
    counts_.push_back({name, value});
  }
  void Fingerprint(std::string text) { fingerprint_ += std::move(text); }

  void Print() const {
    for (const Metric& m : metrics_) {
      if (m.value.has_value()) {
        std::printf("metric\t%s\t%s\t%.17g\n", m.name.c_str(), m.unit.c_str(),
                    *m.value);
      } else {
        std::printf("metric\t%s\t%s\tabsent\n", m.name.c_str(),
                    m.unit.c_str());
      }
    }
    for (const auto& [name, value] : counts_) {
      std::printf("count\t%s\t%llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    if (!fingerprint_.empty()) {
      std::printf("fingerprint\t%s\n", fingerprint_.c_str());
    }
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    std::optional<double> value;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, uint64_t>> counts_;
  std::string fingerprint_;
};

/// Monotonic wall clock, seconds.
inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User-mode CPU time consumed by every thread of this process, seconds.
/// Kernel time (socket calls, fsync) is left out: it is the OS's cost, and
/// it swings with other load on the machine.
inline double UserCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
}

/// Peak resident set size of this process, MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

/// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

inline double Median(std::vector<double> v) {
  Distribution d;
  for (double x : v) d.Add(x);
  return d.Median();
}

/// Nanoseconds accumulated over timed calls into one layer function.
struct CallTimer {
  uint64_t calls = 0;
  double total_ns = 0.0;

  template <typename F>
  auto Time(F&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Add(t0);
    } else {
      auto out = f();
      Add(t0);
      return out;
    }
  }
  double mean_ns() const {
    return calls == 0 ? 0.0 : total_ns / static_cast<double>(calls);
  }
  double total_s() const { return total_ns * 1e-9; }

 private:
  void Add(std::chrono::steady_clock::time_point t0) {
    total_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++calls;
  }
};

}  // namespace helios::perfbench

#endif  // HELIOS_PERFBENCH_REPORT_H_
