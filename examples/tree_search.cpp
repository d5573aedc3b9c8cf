// tree_search: irregular parallel search -- the workload class (knapsack,
// game trees) where lazy task creation shines: the tree's shape is
// unknown, so work must be created speculatively and stolen adaptively.
//
//   $ ./examples/tree_search [queens_n] [workers]
//
// Runs n-queens and a branch-and-bound knapsack side by side and reports
// scheduler activity.
#include <cstdio>
#include <cstdlib>

#include "apps/knapsack.hpp"
#include "apps/nqueens.hpp"
#include "runtime/runtime.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 11;
  const unsigned workers = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 2;

  st::Runtime rt(workers);

  {
    stu::WallTimer t;
    long solutions = 0;
    rt.run([&] { solutions = apps::nqueens::run_st(n); });
    std::printf("%d-queens: %ld solutions in %s\n", n, solutions,
                stu::format_seconds(t.seconds()).c_str());
  }

  {
    const auto instance = apps::knapsack::make_instance(28);
    stu::WallTimer t;
    long best = 0;
    rt.run([&] { best = apps::knapsack::run_st(instance); });
    std::printf("knapsack(28 items, cap %ld): best value %ld in %s\n", instance.capacity,
                best, stu::format_seconds(t.seconds()).c_str());
  }

  const auto s = rt.stats();
  std::printf("scheduler: %llu forks, %llu suspends, %llu steals served, "
              "%llu steal attempts\n",
              static_cast<unsigned long long>(s.forks),
              static_cast<unsigned long long>(s.suspends),
              static_cast<unsigned long long>(s.steals_served),
              static_cast<unsigned long long>(s.steal_attempts));
  return 0;
}
