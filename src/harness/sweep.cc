#include "harness/sweep.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

#include "harness/job_pool.h"

namespace helios::harness {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void AppendField(std::string* out, bool* first, const char* key) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;
  *out += "\":";
}

void AppendNum(std::string* out, bool* first, const char* key, double v) {
  AppendField(out, first, key);
  AppendDouble(out, v);
}

void AppendNum(std::string* out, bool* first, const char* key, uint64_t v) {
  AppendField(out, first, key);
  *out += std::to_string(v);
}

// Strings we emit here (protocol names, DC names, status strings) contain
// no characters needing escapes beyond the basics; escape defensively.
void AppendStr(std::string* out, bool* first, const char* key,
               const std::string& v) {
  AppendField(out, first, key);
  *out += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += '"';
}

void AppendResultJson(std::string* out, const ExperimentResult& r) {
  bool first = true;
  *out += '{';
  AppendNum(out, &first, "avg_abort_rate", r.avg_abort_rate);
  AppendNum(out, &first, "avg_latency_ms", r.avg_latency_ms);
  AppendNum(out, &first, "events_processed", r.events_processed);
  AppendNum(out, &first, "optimal_avg_latency_ms", r.optimal_avg_latency_ms);
  AppendField(out, &first, "optimal_latency_ms");
  *out += '[';
  for (size_t i = 0; i < r.optimal_latency_ms.size(); ++i) {
    if (i > 0) *out += ',';
    AppendDouble(out, r.optimal_latency_ms[i]);
  }
  *out += ']';
  AppendField(out, &first, "per_dc");
  *out += '[';
  for (size_t i = 0; i < r.per_dc.size(); ++i) {
    const DcResult& dc = r.per_dc[i];
    if (i > 0) *out += ',';
    bool dc_first = true;
    *out += '{';
    AppendNum(out, &dc_first, "abort_rate", dc.abort_rate);
    AppendNum(out, &dc_first, "aborted", dc.aborted);
    AppendNum(out, &dc_first, "committed", dc.committed);
    AppendNum(out, &dc_first, "latency_ci95_ms", dc.latency_ci95_ms);
    AppendNum(out, &dc_first, "latency_mean_ms", dc.latency_mean_ms);
    AppendNum(out, &dc_first, "latency_p50_ms", dc.latency_p50_ms);
    AppendNum(out, &dc_first, "latency_p99_ms", dc.latency_p99_ms);
    AppendNum(out, &dc_first, "latency_stddev_ms", dc.latency_stddev_ms);
    AppendStr(out, &dc_first, "name", dc.name);
    AppendNum(out, &dc_first, "throughput_ops_s", dc.throughput_ops_s);
    *out += '}';
  }
  *out += ']';
  AppendStr(out, &first, "protocol", r.protocol);
  if (r.serializability.has_value()) {
    AppendStr(out, &first, "serializability", r.serializability->ToString());
  }
  AppendNum(out, &first, "total_throughput_ops_s", r.total_throughput_ops_s);
  *out += '}';
}

}  // namespace

Status SweepResult::status() const {
  // Prefer a real failure over a "cancelled before start" placeholder so
  // callers see the root cause first.
  for (const SweepJobResult& job : jobs) {
    if (job.ran && !job.status.ok()) return job.status;
  }
  for (const SweepJobResult& job : jobs) {
    if (!job.status.ok()) return job.status;
  }
  return Status::Ok();
}

double SweepResult::Speedup() const {
  return wall_seconds > 0.0 ? total_job_seconds / wall_seconds : 0.0;
}

std::string SweepResult::ToJson() const {
  int failed = 0;
  for (const SweepJobResult& job : jobs) {
    if (job.ran && !job.status.ok()) ++failed;
  }
  std::string out;
  bool first = true;
  out += '{';
  AppendField(&out, &first, "cancelled");
  out += cancelled ? "true" : "false";
  AppendNum(&out, &first, "failed", static_cast<uint64_t>(failed));
  AppendField(&out, &first, "jobs");
  out += '[';
  for (size_t i = 0; i < jobs.size(); ++i) {
    const SweepJobResult& job = jobs[i];
    if (i > 0) out += ',';
    bool job_first = true;
    out += '{';
    AppendField(&out, &job_first, "ran");
    out += job.ran ? "true" : "false";
    if (job.status.ok()) {
      AppendField(&out, &job_first, "result");
      AppendResultJson(&out, job.result);
    }
    AppendField(&out, &job_first, "spec");
    out += job.spec.ToJson();
    AppendStr(&out, &job_first, "status", job.status.ToString());
    out += '}';
  }
  out += ']';
  AppendStr(&out, &first, "schema", "helios.sweep.v1");
  AppendNum(&out, &first, "total", static_cast<uint64_t>(jobs.size()));
  out += '}';
  return out;
}

Status SweepResult::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("short write to " + path);
  }
  return Status::Ok();
}

std::string SweepResult::TimingSummary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu jobs: wall %.1fs, aggregate %.1fs, speedup %.2fx%s",
                jobs.size(), wall_seconds, total_job_seconds, Speedup(),
                cancelled ? " (cancelled)" : "");
  return buf;
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)) {}

SweepResult SweepRunner::Run(const std::vector<ExperimentSpec>& specs) {
  const int total = static_cast<int>(specs.size());
  SweepResult sweep;
  sweep.jobs.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    sweep.jobs[i].spec = specs[i];
    sweep.jobs[i].status =
        Status::Aborted("cancelled before start (an earlier job failed)");
  }

  const Clock::time_point start = Clock::now();
  std::mutex progress_mu;  // Serializes progress state and the callback.
  int done = 0;
  int failed = 0;

  {
    JobPool pool(options_.jobs);
    for (int i = 0; i < total; ++i) {
      pool.Submit([&, i] {
        SweepJobResult& out = sweep.jobs[static_cast<size_t>(i)];
        const Clock::time_point job_start = Clock::now();
        Status st = Status::Ok();
        auto cfg = out.spec.ToConfig();  // Validates.
        if (!cfg.ok()) {
          st = cfg.status();
        } else {
          if (options_.configure) options_.configure(out.spec, &cfg.value());
          out.result = RunExperiment(cfg.value());
          if (out.result.serializability.has_value() &&
              !out.result.serializability->ok()) {
            st = *out.result.serializability;
          }
          if (st.ok() && options_.check) {
            st = options_.check(out.spec, &out.result);
          }
        }
        out.status = st;
        out.ran = true;
        out.wall_seconds = SecondsSince(job_start);

        SweepProgress p;
        {
          std::lock_guard<std::mutex> lock(progress_mu);
          ++done;
          if (!st.ok()) {
            ++failed;
            pool.Cancel();
          }
          p.done = done;
          p.total = total;
          p.failed = failed;
          p.elapsed_seconds = SecondsSince(start);
          p.eta_seconds =
              done > 0 ? p.elapsed_seconds *
                             static_cast<double>(total - done) / done
                       : 0.0;
          p.last_label = out.spec.DisplayName();
          p.last_status = st;
          if (options_.progress) options_.progress(p);
        }
      });
    }
    pool.Wait();
    sweep.cancelled = pool.cancelled();
  }

  sweep.wall_seconds = SecondsSince(start);
  for (const SweepJobResult& job : sweep.jobs) {
    sweep.total_job_seconds += job.wall_seconds;
  }
  return sweep;
}

}  // namespace helios::harness
