// Reading st::Runtime from outside: stats() deltas around timed calls,
// idle wakes, empty-run latency and metrics_json() snapshots, each call
// wrapped in a `util` span.  Shared by the dnc and echo workloads.
#pragma once

#include <string>

#include "runtime/runtime.hpp"
#include "stbench.hpp"

namespace pb {

// The RuntimeStats counters the benchmark reads as per-phase deltas.
#define PB_RT_COUNTERS(X)                                                                \
  X(forks) X(suspends) X(resumes) X(steals_received) X(steal_attempts) X(steals_rejected) \
  X(steals_cancelled) X(tasks_completed) X(heap_fallbacks) X(io_wakeups) X(io_events)     \
  X(io_migrations)

/// Summed stats() deltas of one phase (P1 or P) over the traced rounds.
struct RtAcc {
  st::RuntimeStats d{};
  std::uint64_t idle_wakes = 0;
  double cpu_s = 0, wall_s = 0;  ///< process CPU and wall time of the calls

  void add(const st::RuntimeStats& a, const st::RuntimeStats& b) {
#define PB_DELTA(f) d.f += b.f - a.f;
    PB_RT_COUNTERS(PB_DELTA)
#undef PB_DELTA
  }

  /// Writes every counter as `<prefix>.<name>`, divided by `per` (the
  /// number of traced rounds, so counts are per round).
  void emit(Obj& o, const std::string& prefix, double per) const {
#define PB_EMIT(f) o.num(prefix + "." #f, static_cast<double>(d.f) / per);
    PB_RT_COUNTERS(PB_EMIT)
#undef PB_EMIT
    o.num(prefix + ".idle_wakes", static_cast<double>(idle_wakes) / per);
    o.num(prefix + ".cpu_per_wall", wall_s > 0 ? cpu_s / wall_s : 0);
  }
};

inline std::uint64_t idle_wakes(const st::Runtime& rt) {
  std::uint64_t n = 0;
  for (unsigned d = 0; d < rt.num_domains(); ++d) n += rt.domain_idle_wakes(d);
  return n;
}

inline st::RuntimeStats stats_of(Ctx& ctx, const st::Runtime& rt, int parent) {
  Span s(ctx.spans, "util.stats", "util", parent);
  return rt.stats();
}

/// Runs `timed`, which returns its own wall time in ms.  With `acc` set it
/// also adds the stats() delta, idle wakes and process CPU time around it.
template <typename F>
double probed(Ctx& ctx, st::Runtime& rt, int parent, RtAcc* acc, F&& timed) {
  if (acc == nullptr) return timed();
  const st::RuntimeStats before = stats_of(ctx, rt, parent);
  const std::uint64_t wakes0 = idle_wakes(rt);
  const double cpu0 = process_cpu_s();
  const double ms = timed();
  acc->cpu_s += process_cpu_s() - cpu0;
  acc->wall_s += ms * 1e-3;
  acc->idle_wakes += idle_wakes(rt) - wakes0;
  acc->add(before, stats_of(ctx, rt, parent));
  return ms;
}

/// Median latency of an empty rt.run, in microseconds.
inline double run_empty_us(Ctx& ctx, st::Runtime& rt, int reps) {
  Span s(ctx.spans, "runtime.run_empty", "runtime");
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    rt.run([] {});
    us.push_back(ms_since(t0) * 1e3);
  }
  return median(us);
}

inline void snapshot_runtime(Ctx& ctx, const std::string& tag, const st::Runtime& rt) {
  Span s(ctx.spans, "util.metrics_json", "util");
  ctx.snapshot(tag, rt.metrics_json());
}

}  // namespace pb
