// Figure 22 of the paper: execution time of StackThreads/MP relative to
// Cilk on 1, 8, 32 and 50 processors.  The paper's claim: "Overall
// performance is similar... Neither was consistently better than the
// other."
//
// The sweep covers powers of two up to hardware concurrency (hardware
// concurrency itself is always included, capped by STMP_MAX_WORKERS);
// the reported quantity is exactly the figure's:
// time(stmp)/time(cilkstyle) per application per worker count.
//
// Beyond the timing ratio, the suite gates on the hierarchical-stealing
// counters (docs/OBSERVABILITY.md):
//   * accounting identity: steals_local + steals_remote ==
//     steals_received for every cell -- a broken split means the domain
//     classification in try_steal_and_run diverged from the negotiation;
//   * steal-rejection regression: at the largest P, an untimed
//     ST_TOPOLOGY=flat control run per app reproduces the PR-4
//     ST_VICTIM=load baseline in-process; the hierarchical rejection
//     rate must not exceed it by more than 10 points (only enforced
//     once both sides have >= 200 attempts -- below that the rates are
//     noise; STMP_FIG22_GATE=0 disables the gate entirely).
// Per-P steal/idle counters are exported through --json as rows named
// steal_*/idle_* which tools/bench_diff.py reports but never treats as
// timing regressions.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench/harness.hpp"
#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"
#include "util/env.hpp"

namespace {

/// Steal-counter aggregate for one worker count, summed across apps.
struct StealTotals {
  std::uint64_t attempts = 0, received = 0, rejected = 0;
  std::uint64_t local = 0, remote = 0, tasks = 0, idle_wakes = 0;
  std::uint64_t completed = 0;
  double reject_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(rejected) /
                               static_cast<double>(attempts);
  }
  /// Rejections per completed task: the cost metric the gate compares.
  /// Rejected/attempts is misleading across victim policies -- the
  /// hierarchical chooser suppresses probes of empty victims, shrinking
  /// the denominator ~10x while absolute rejections stay flat -- but
  /// both sides of the gate run the identical workload, so rejections
  /// per unit of work measures wasted negotiations directly.
  double reject_per_task() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(rejected) /
                                static_cast<double>(completed);
  }
};

void accumulate(const st::Runtime& rt, StealTotals* t) {
  const st::RuntimeStats s = rt.stats();
  t->attempts += s.steal_attempts;
  t->received += s.steals_received;
  t->rejected += s.steals_rejected;
  t->local += s.steals_local;
  t->remote += s.steals_remote;
  t->tasks += s.steal_tasks;
  t->completed += s.tasks_completed;
  for (unsigned d = 0; d < rt.num_domains(); ++d)
    t->idle_wakes += rt.domain_idle_wakes(d);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_json_flag(argc, argv, "fig22_parallel");
  bench::print_header("StackThreads/MP relative to the Cilk-style baseline",
                      "Figure 22 (Section 8.2)");
  const double s = bench::scale();
  const long max_workers = stu::env_long(
      "STMP_MAX_WORKERS",
      static_cast<long>(std::max<std::size_t>(4, stu::hardware_workers())));
  std::vector<unsigned> sweep;
  for (unsigned w = 1; static_cast<long>(w) <= max_workers; w *= 2)
    sweep.push_back(w);
  // The figure's right edge is the full machine: include hardware
  // concurrency even when it is not a power of two.
  const unsigned hw = static_cast<unsigned>(std::min<long>(
      max_workers, static_cast<long>(stu::hardware_workers())));
  if (hw > 0 && std::find(sweep.begin(), sweep.end(), hw) == sweep.end())
    sweep.push_back(hw);

  std::vector<std::string> headers{"app"};
  for (unsigned w : sweep) headers.push_back("P=" + std::to_string(w));
  stu::Table table(std::move(headers));

  std::map<unsigned, StealTotals> totals;  // per worker count, across apps
  std::uint64_t total_steals_st = 0, total_steals_ck = 0;
  for (const auto& app : apps::all_apps()) {
    std::vector<std::string> row{app.name};
    for (unsigned w : sweep) {
      std::uint64_t st_sum = 0, ck_sum = 0;
      double st_secs, ck_secs;
      {
        st::Runtime rt(w);
        st_secs = bench::time_best([&] { rt.run([&] { st_sum = app.st(s); }); });
        const st::RuntimeStats stats = rt.stats();
        total_steals_st += stats.steals_received;
        accumulate(rt, &totals[w]);
        if (stats.steals_local + stats.steals_remote != stats.steals_received) {
          std::fprintf(stderr,
                       "steal accounting broken in %s at P=%u: "
                       "local=%llu + remote=%llu != received=%llu\n",
                       app.name.c_str(), w,
                       static_cast<unsigned long long>(stats.steals_local),
                       static_cast<unsigned long long>(stats.steals_remote),
                       static_cast<unsigned long long>(stats.steals_received));
          return 1;
        }
      }
      {
        ck::Runtime rt(w);
        ck_secs = bench::time_best([&] { rt.run([&] { ck_sum = app.ck(s); }); });
        total_steals_ck += rt.total_steals();
      }
      if (st_sum != ck_sum) {
        std::fprintf(stderr, "checksum mismatch in %s at P=%u\n", app.name.c_str(), w);
        return 1;
      }
      const std::string cell = app.name + "/P=" + std::to_string(w);
      bench::json_record(cell + "/stmp", st_secs, bench::reps());
      bench::json_record(cell + "/cilkstyle", ck_secs, bench::reps());
      row.push_back(stu::Table::num(st_secs / ck_secs, 2));
    }
    table.add_row(std::move(row));
  }
  table.print();

  // Steal/idle phase of the artifact: one row per counter per worker
  // count.  The ns_per_op field carries the raw count -- bench_diff.py
  // echoes deltas for steal_*/idle_* rows without gating on them.
  stu::Table steals({"P", "attempts", "received", "local", "remote",
                     "reject%", "idle_wakes"});
  for (const auto& [w, t] : totals) {
    const std::string p = std::to_string(w);
    steals.add_row({p, std::to_string(t.attempts), std::to_string(t.received),
                    std::to_string(t.local), std::to_string(t.remote),
                    stu::Table::num(100.0 * t.reject_rate(), 1),
                    std::to_string(t.idle_wakes)});
    bench::json_record("steal_local/P=" + p, static_cast<double>(t.local) * 1e-9, 1);
    bench::json_record("steal_remote/P=" + p, static_cast<double>(t.remote) * 1e-9, 1);
    bench::json_record("steal_rejected/P=" + p, static_cast<double>(t.rejected) * 1e-9, 1);
    bench::json_record("steal_tasks/P=" + p, static_cast<double>(t.tasks) * 1e-9, 1);
    bench::json_record("idle_wake/P=" + p, static_cast<double>(t.idle_wakes) * 1e-9, 1);
  }
  std::printf("\nsteal counters per worker count (summed over apps):\n");
  steals.print();

  // Rejection-rate gate at the largest P: re-run every app once,
  // untimed, under ST_TOPOLOGY=flat -- the PR-4 load-aware baseline --
  // and require the hierarchical rate to stay within 10 points of it.
  const unsigned pmax = sweep.back();
  if (stu::env_long("STMP_FIG22_GATE", 1) != 0) {
    const char* prev = std::getenv("ST_TOPOLOGY");
    const std::string saved = prev != nullptr ? prev : "";
    ::setenv("ST_TOPOLOGY", "flat", 1);
    StealTotals flat;
    for (const auto& app : apps::all_apps()) {
      st::Runtime rt(pmax);
      std::uint64_t sink = 0;
      rt.run([&] { sink = app.st(s); });
      accumulate(rt, &flat);
      if (sink == 0) std::fprintf(stderr, "(flat control: zero checksum?)\n");
    }
    if (prev != nullptr)
      ::setenv("ST_TOPOLOGY", saved.c_str(), 1);
    else
      ::unsetenv("ST_TOPOLOGY");
    const StealTotals& hier = totals[pmax];
    std::printf("\nrejection gate at P=%u (rejections per 1k tasks): "
                "hierarchical %.2f (%llu rej / %llu tasks, rate %.1f%%) "
                "vs flat baseline %.2f (%llu rej / %llu tasks, rate %.1f%%)\n",
                pmax, 1000.0 * hier.reject_per_task(),
                static_cast<unsigned long long>(hier.rejected),
                static_cast<unsigned long long>(hier.completed),
                100.0 * hier.reject_rate(),
                1000.0 * flat.reject_per_task(),
                static_cast<unsigned long long>(flat.rejected),
                static_cast<unsigned long long>(flat.completed),
                100.0 * flat.reject_rate());
    // Enforce only once both sides saw enough rejections for the ratio
    // to be signal, with 2x slack plus an absolute floor for noise.
    if (hier.rejected >= 50 && flat.rejected >= 50 &&
        hier.reject_per_task() > 2.0 * flat.reject_per_task() + 0.001) {
      std::fprintf(stderr,
                   "steal-rejection gate FAILED: hierarchical stealing "
                   "wastes %.2f rejections per 1k tasks vs %.2f flat "
                   "(slack 2x + 1)\n",
                   1000.0 * hier.reject_per_task(),
                   1000.0 * flat.reject_per_task());
      return 1;
    }
  }

  std::printf("\nmigrations observed: stmp steals=%llu, cilkstyle steals=%llu\n",
              static_cast<unsigned long long>(total_steals_st),
              static_cast<unsigned long long>(total_steals_ck));
  std::printf("\nPaper's shape to check: ratios scattered around 1.0 with no\n"
              "consistent winner across applications or worker counts.\n");
  return bench::json_finish("fig22_parallel") ? 0 : 1;
}
