// Shared timing harness for the table/figure reproduction binaries.
//
// Environment knobs:
//   STMP_SCALE       workload multiplier (default 0.25 here: CI-sized;
//                    use 1.0+ to approach paper-sized problems)
//   STMP_BENCH_REPS  timed repetitions per cell (default 2; best is kept)
//   STMP_MAX_WORKERS cap for the Figure 22 worker sweep
//
// Observability (docs/OBSERVABILITY.md): every benchmark can be run with
// scheduler tracing on --
//   ST_TRACE=out.json <bench>      merged Chrome-trace JSON at exit
//   ST_TRACE_EVENTS=steal,vm ...   restrict the recorded events
//   ST_STATS=1 <bench>             end-of-run counter table on stderr
// print_header() announces an active trace so a saved log records how
// the numbers were produced (tracing perturbs the hot paths).
//
// Machine-readable results: pass `--json [path]` to any suite built on
// this harness and it writes a JSON results file (default
// BENCH_<suite>.json) alongside the human table -- one record per
// measured cell: {"benchmark": ..., "ns_per_op": ..., "samples": ...}.
// The "meta" block stamps the build, the knobs and the host (nproc,
// cpu_model).  CI uploads these as artifacts so perf history is diffable.
#pragma once

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace_export.hpp"

namespace bench {

inline double scale() { return stu::env_double("STMP_SCALE", 0.25); }
inline long reps() { return stu::env_long("STMP_BENCH_REPS", 2); }

/// One measured cell of a suite, in nanoseconds per operation (for the
/// figure/table suites an "operation" is one timed run of the workload).
struct JsonResult {
  std::string benchmark;
  double ns_per_op = 0;
  long samples = 0;
};

/// Collects results for the suite-level `--json` flag.  Intentionally
/// dumb: fixed schema, one level of nesting (a flat "meta" string map
/// stamping provenance), parseable by one jq expression.
class JsonWriter {
 public:
  void add(std::string name, double ns_per_op, long samples) {
    results_.push_back({std::move(name), ns_per_op, samples});
  }
  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  void set_path(std::string p) { path_ = std::move(p); }

  /// Stamps (or overwrites) one provenance key in the artifact's "meta"
  /// block.  parse_json_flag() seeds git_sha/dispatch/scale/reps; suites
  /// add what they know (e.g. which engines actually ran) so
  /// tools/bench_diff.py can warn when two files are not comparable.
  void set_meta(const std::string& key, std::string value) {
    for (auto& kv : meta_) {
      if (kv.first == key) {
        kv.second = std::move(value);
        return;
      }
    }
    meta_.emplace_back(key, std::move(value));
  }

  /// Writes the file; returns false (with a note on stderr) on I/O error.
  bool write(const std::string& suite) const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"suite\": \"%s\",\n  \"meta\": {", suite.c_str());
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                   meta_[i].first.c_str(), meta_[i].second.c_str());
    }
    std::fprintf(f, "},\n  \"results\": [\n");
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const auto& r = results_[i];
      std::fprintf(f,
                   "    {\"benchmark\": \"%s\", \"ns_per_op\": %.3f, "
                   "\"samples\": %ld}%s\n",
                   r.benchmark.c_str(), r.ns_per_op, r.samples,
                   i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string path_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<JsonResult> results_;
};

/// Host stamp: CPUs this process may run on (what `nproc` prints).
inline std::string host_nproc() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::to_string(CPU_COUNT(&set));
#endif
  return std::to_string(std::thread::hardware_concurrency());
}

/// Host stamp: the first "model name" of /proc/cpuinfo ("unknown" when
/// absent), stripped of characters the JSON writer does not escape.
inline std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\' && (c != ' ' || !model.empty())) model += c;
    }
    return model.empty() ? "unknown" : model;
  }
  return "unknown";
}

/// The suite's shared writer (one results file per binary).
inline JsonWriter& json_writer() {
  static JsonWriter w;
  return w;
}

/// Parses and strips `--json [path]` from argv.  Call first thing in
/// main(); `suite` names the default output file BENCH_<suite>.json.
/// Unrecognized arguments are left alone (google-benchmark suites pass
/// the remainder on to the library).
inline void parse_json_flag(int& argc, char** argv, const std::string& suite) {
  // Provenance stamp: which build produced this artifact, and under
  // which knobs.  The git revision is baked in at configure time
  // (STMP_GIT_SHA); ST_BENCH_GIT_SHA overrides it for builds from
  // exported source (no .git directory).
#ifdef STMP_GIT_SHA
  const std::string sha_default = STMP_GIT_SHA;
#else
  const std::string sha_default = "unknown";
#endif
  json_writer().set_meta("git_sha",
                         stu::env_string("ST_BENCH_GIT_SHA", sha_default));
  json_writer().set_meta("dispatch",
                         stu::env_string("ST_STVM_DISPATCH", "default"));
  json_writer().set_meta("scale", std::to_string(scale()));
  json_writer().set_meta("reps", std::to_string(reps()));
  // Which machine: tools/bench_diff.py gates only between equal stamps.
  json_writer().set_meta("nproc", host_nproc());
  json_writer().set_meta("cpu_model", host_cpu_model());
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      std::string path = "BENCH_" + suite + ".json";
      if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[++i];
      json_writer().set_path(path);
      continue;
    }
    if (a.rfind("--json=", 0) == 0) {
      json_writer().set_path(a.substr(7));
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
}

/// Record one measured cell (seconds, sample count) under `name`.
inline void json_record(const std::string& name, double seconds, long samples) {
  if (json_writer().enabled()) {
    json_writer().add(name, seconds * 1e9, samples);
  }
}

/// Write the results file if --json was given; returns false on I/O
/// error (suites exit nonzero so CI notices a broken artifact).
inline bool json_finish(const std::string& suite) {
  return json_writer().write(suite);
}

/// Runs fn() reps times; returns the best wall-clock seconds.
inline double time_best(const std::function<void()>& fn) {
  stu::Samples samples;
  for (long r = 0; r < reps(); ++r) {
    stu::WallTimer t;
    fn();
    samples.add(t.seconds());
  }
  return samples.best();
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  stu::trace_configure_from_env();
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("scale=%.3g reps=%ld\n", scale(), reps());
  if (stu::trace_mask() != 0) {
    std::printf("tracing: mask=0x%llx%s%s  (timings are perturbed!)\n",
                static_cast<unsigned long long>(stu::trace_mask()),
                stu::trace_path().empty() ? "" : " -> ",
                stu::trace_path().c_str());
  }
  std::printf("==============================================================\n");
}

}  // namespace bench
