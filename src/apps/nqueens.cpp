#include "apps/nqueens.hpp"

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "apps/exec_policy.hpp"
#include "sync/abort.hpp"
#include "util/spinlock.hpp"

namespace apps::nqueens {

namespace {

/// `row` queens are placed.  Leaf polls stop five rows short of the
/// bottom, where subtrees are too small to be worth a poll each; from
/// there the search runs the poll-free SeqExec instance, which is seq()'s
/// own code (carrying `row` through the hot rows costs a register).
template <typename Exec>
long count_seq(int n, int row, std::uint32_t cols, std::uint32_t diag1, std::uint32_t diag2) {
  if (cols == (1u << n) - 1) return 1;
  if constexpr (!std::is_same_v<Exec, SeqExec>) {
    if (row >= n - 5) return count_seq<SeqExec>(n, row, cols, diag1, diag2);
    Exec::poll();
  }
  long found = 0;
  std::uint32_t free_slots = ~(cols | diag1 | diag2) & ((1u << n) - 1);
  while (free_slots != 0) {
    const std::uint32_t bit = free_slots & (0u - free_slots);
    free_slots ^= bit;
    found += count_seq<Exec>(n, row + 1, cols | bit, (diag1 | bit) << 1, (diag2 | bit) >> 1);
  }
  return found;
}

/// Parallel over the first two rows' placements.
template <typename Exec>
long run(int n) {
  std::atomic<long> total{0};
  struct Start {
    std::uint32_t cols, d1, d2;
  };
  std::vector<Start> starts;
  const std::uint32_t all = (1u << n) - 1;
  for (int c0 = 0; c0 < n; ++c0) {
    const std::uint32_t b0 = 1u << c0;
    const std::uint32_t cols = b0, d1 = b0 << 1, d2 = b0 >> 1;
    std::uint32_t free_slots = ~(cols | d1 | d2) & all;
    while (free_slots != 0) {
      const std::uint32_t b1 = free_slots & (0u - free_slots);
      free_slots ^= b1;
      starts.push_back({cols | b1, (d1 | b1) << 1, (d2 | b1) >> 1});
    }
  }
  Exec::par_for(0, starts.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      total.fetch_add(count_seq<Exec>(n, 2, starts[i].cols, starts[i].d1, starts[i].d2),
                      std::memory_order_relaxed);
    }
  });
  return total.load();
}

}  // namespace

long seq(int n) { return count_seq<SeqExec>(n, 0, 0, 0, 0); }
long run_st(int n) { return run<StExec>(n); }
long run_ck(int n) { return run<CkExec>(n); }

namespace {

thread_local long tl_first_solution_nodes = 0;

struct FirstSolutionState {
  st::AbortGroup abort;
  stu::Spinlock lock;
  std::vector<int> winner;
  std::atomic<long> nodes{0};
};

/// Sequential descent that records placements and honours the abort flag
/// at every node (the natural poll points of the search).
bool find_one(FirstSolutionState& s, int n, int row, std::uint32_t cols, std::uint32_t d1,
              std::uint32_t d2, std::vector<int>& placement) {
  if (s.abort.aborted()) return false;  // someone already won
  s.nodes.fetch_add(1, std::memory_order_relaxed);
  if (row == n) return true;
  std::uint32_t free_slots = ~(cols | d1 | d2) & ((1u << n) - 1);
  while (free_slots != 0) {
    const std::uint32_t bit = free_slots & (0u - free_slots);
    free_slots ^= bit;
    placement[static_cast<std::size_t>(row)] = __builtin_ctz(bit);
    if (find_one(s, n, row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1, placement)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<int> first_solution_st(int n) {
  FirstSolutionState state;
  st::JoinCounter jc;
  for (int c0 = 0; c0 < n; ++c0) {
    st::fork(jc, [&state, n, c0] {
      std::vector<int> placement(static_cast<std::size_t>(n), -1);
      placement[0] = c0;
      const std::uint32_t b0 = 1u << c0;
      if (find_one(state, n, 1, b0, b0 << 1, b0 >> 1, placement)) {
        // First to complete wins; everyone else sees the flag and unwinds.
        if (state.abort.request_abort()) {
          stu::SpinGuard g(state.lock);
          state.winner = std::move(placement);
        }
      }
    });
    st::poll();
  }
  jc.join();
  tl_first_solution_nodes = state.nodes.load(std::memory_order_relaxed);
  return state.winner;
}

long last_first_solution_nodes() { return tl_first_solution_nodes; }

}  // namespace apps::nqueens
