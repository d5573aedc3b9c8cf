// Shared plumbing of the stbench measurement binary (see README.md):
// options, the in-memory span recorder, correctness accounting and the
// raw-record JSON writer.  The binary measures and checks; run.py turns
// its raw record into the benchmark's named metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double ms_since(std::uint64_t t0) noexcept {
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

/// Process CPU time (all threads), seconds.
double process_cpu_s() noexcept;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes
  std::string out;    ///< raw record path
  std::string spans;  ///< span dump path (trace runs)
};

/// In-memory spans around every call the benchmark makes into a layer:
/// (name, layer, start, end, parent).  Recording is off in untraced runs,
/// where begin() returns -1 and costs one branch.  Written out at exit.
class Spans {
 public:
  void enable(bool on) { on_ = on; }
  bool on() const noexcept { return on_; }
  int begin(const std::string& name, const char* layer, int parent);
  void end(int id);
  bool write(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    const char* layer;
    std::uint64_t t0, t1;
    int parent;
  };
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
};

class Span {
 public:
  Span(Spans& s, const std::string& name, const char* layer, int parent = -1)
      : s_(s), id_(s.begin(name, layer, parent)) {}
  ~Span() { s_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const noexcept { return id_; }

 private:
  Spans& s_;
  int id_;
};

/// Every checked operation counts as attempted; a mismatch counts as
/// failed and keeps its message (the first few) for the record.
struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> messages;
  std::mutex mu;

  void expect(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> g(mu);
    ++attempted;
    if (!ok) {
      ++failed;
      if (messages.size() < 16) messages.push_back(what);
    }
  }
};

/// Minimal JSON object writer for the raw record (keys in insertion order).
class Obj {
 public:
  Obj& num(const std::string& k, double v);
  Obj& str(const std::string& k, const std::string& v);
  Obj& raw(const std::string& k, const std::string& json);
  Obj& arr(const std::string& k, const std::vector<double>& v);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_str(const std::string& s);

/// Per-kernel timings in ms, one entry per round: sequential baseline, one
/// worker, P workers, and a reference (cilkstyle at P in traced dnc runs;
/// the fork-free STVM program on stvm).
struct KernelTimes {
  std::string name;
  std::vector<double> seq_ms, p1_ms, par_ms, ref_ms;
};

/// Calls of a kernel taking `once_ms` that add up to about 10 ms, so short
/// sequential baselines are timed over enough work.
inline int reps_for(double once_ms) {
  return once_ms >= 10 ? 1 : static_cast<int>(std::min(1000.0, 10 / std::max(once_ms, 0.01)) + 1);
}

/// How often a round repeats a kernel's (seq, P1, P) triple that takes
/// `triple_ms`: cheap kernels repeat up to about 150 ms, so their noisier
/// samples are as many as the time they cost allows.
inline int triples_for(double triple_ms) {
  return static_cast<int>(std::clamp(150 / std::max(triple_ms, 1.0) + 0.5, 1.0, 20.0));
}

/// Everything one workload run produces.
struct Ctx {
  Options opt;
  unsigned nproc = 1;
  unsigned P = 1;       ///< worker count of the parallel phase
  Spans spans;
  Checks checks;
  std::vector<double> setup_s;
  std::vector<KernelTimes> kernels;
  /// Kernel timings of the untraced rounds of a traced run (the base of
  /// util.trace_overhead_pct).
  std::vector<KernelTimes> untraced;
  Obj layer;                          ///< per-layer numbers measured here
  std::vector<std::string> snapshots; ///< raw metrics_json() objects

  KernelTimes& kernel(std::vector<KernelTimes>& v, const std::string& name);
  /// Spans and runtime histograms on or off (traced runs alternate).
  void set_tracing(bool on);
  /// Traced runs measure every other round with tracing on; the rest are
  /// the untraced base of util.trace_overhead_pct.
  bool traced_round(int round) const { return opt.trace && round % 2 == 0; }
  std::vector<KernelTimes>& times_for(int round) {
    return opt.trace && !traced_round(round) ? untraced : kernels;
  }
  /// Keeps a metrics_json() object under a tag for run.py.
  void snapshot(const std::string& tag, const std::string& json) {
    snapshots.push_back("{\"tag\":" + json_str(tag) + ",\"data\":" + json + "}");
  }
  /// True while the time budget of the measured rounds lasts, and for at
  /// least three rounds.
  bool keep_going(std::uint64_t t_start, double budget_s, int round) const {
    return round < 3 || static_cast<double>(now_ns() - t_start) * 1e-9 < budget_s;
  }
};

void run_dnc(Ctx& ctx, bool fine);
void run_echo(Ctx& ctx);
void run_stvm(Ctx& ctx);

/// Name of the STVM engine a default-configured Vm selects on this host.
std::string default_vm_engine();

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

}  // namespace pb
