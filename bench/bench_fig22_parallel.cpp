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
// Beyond the timing ratio, every stmp cell gates on the steal identity
// (docs/OBSERVABILITY.md): steal_attempts == steals_received +
// steals_rejected + steals_cancelled, i.e. every posted negotiation
// ended in exactly one outcome.  Per-P steal/idle counters are exported
// through --json as rows named steal_*/idle_* which tools/bench_diff.py
// reports but never treats as timing regressions.
#include <algorithm>
#include <cstdio>
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
  std::uint64_t attempts = 0, received = 0, rejected = 0, cancelled = 0;
  std::uint64_t idle_wakes = 0;
  double reject_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(rejected) /
                               static_cast<double>(attempts);
  }
};

void accumulate(const st::Runtime& rt, const st::RuntimeStats& s, StealTotals* t) {
  t->attempts += s.steal_attempts;
  t->received += s.steals_received;
  t->rejected += s.steals_rejected;
  t->cancelled += s.steals_cancelled;
  t->idle_wakes += rt.idle_wakes();
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
        accumulate(rt, stats, &totals[w]);
        if (stats.steal_attempts !=
            stats.steals_received + stats.steals_rejected + stats.steals_cancelled) {
          std::fprintf(stderr,
                       "steal identity broken in %s at P=%u: attempts=%llu != "
                       "received=%llu + rejected=%llu + cancelled=%llu\n",
                       app.name.c_str(), w,
                       static_cast<unsigned long long>(stats.steal_attempts),
                       static_cast<unsigned long long>(stats.steals_received),
                       static_cast<unsigned long long>(stats.steals_rejected),
                       static_cast<unsigned long long>(stats.steals_cancelled));
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
  stu::Table steals({"P", "attempts", "received", "rejected", "cancelled",
                     "reject%", "idle_wakes"});
  for (const auto& [w, t] : totals) {
    const std::string p = std::to_string(w);
    steals.add_row({p, std::to_string(t.attempts), std::to_string(t.received),
                    std::to_string(t.rejected), std::to_string(t.cancelled),
                    stu::Table::num(100.0 * t.reject_rate(), 1),
                    std::to_string(t.idle_wakes)});
    bench::json_record("steal_rejected/P=" + p, static_cast<double>(t.rejected) * 1e-9, 1);
    bench::json_record("idle_wake/P=" + p, static_cast<double>(t.idle_wakes) * 1e-9, 1);
  }
  std::printf("\nsteal counters per worker count (summed over apps):\n");
  steals.print();

  std::printf("\nmigrations observed: stmp steals=%llu, cilkstyle steals=%llu\n",
              static_cast<unsigned long long>(total_steals_st),
              static_cast<unsigned long long>(total_steals_ck));
  std::printf("\nPaper's shape to check: ratios scattered around 1.0 with no\n"
              "consistent winner across applications or worker counts.\n");
  return bench::json_finish("fig22_parallel") ? 0 : 1;
}
