#include "apps/magic.hpp"

#include <array>
#include <atomic>
#include <vector>

#include "apps/exec_policy.hpp"

namespace apps::magic {

namespace {

constexpr int kN = 4;
constexpr int kCells = kN * kN;
constexpr int kSum = 34;

struct Board {
  std::array<int, kCells> cell{};  // 0 = empty
  std::uint32_t used = 0;          // bitmask of placed numbers (bit v-1)
};

/// Prunes on completed rows, completed columns, partial-sum overflow and
/// the two diagonals.
bool feasible(const Board& b, int pos) {
  const int r = pos / kN, c = pos % kN;
  // Row sum check when a row completes; partial bounds otherwise (the
  // one-cell-left case must hit kSum exactly with an unused number).
  int row_sum = 0;
  for (int j = 0; j <= c; ++j) row_sum += b.cell[r * kN + j];
  if (c == kN - 1) {
    if (row_sum != kSum) return false;
  } else {
    if (row_sum >= kSum) return false;
    if (c == kN - 2) {
      const int need = kSum - row_sum;
      if (need < 1 || need > kCells || (b.used & (1u << (need - 1)))) return false;
    }
  }
  // Column sum when the column completes (we fill row-major, so column c
  // completes at the last row); same exact-fit prune one cell early.
  int col_sum = 0;
  for (int i = 0; i <= r; ++i) col_sum += b.cell[i * kN + c];
  if (r == kN - 1) {
    if (col_sum != kSum) return false;
  } else {
    if (col_sum >= kSum) return false;
    if (r == kN - 2) {
      const int need = kSum - col_sum;
      if (need < 1 || need > kCells || (b.used & (1u << (need - 1)))) return false;
    }
  }
  // Diagonals complete at the bottom corners.
  if (r == kN - 1 && c == kN - 1) {
    int d = 0;
    for (int i = 0; i < kN; ++i) d += b.cell[i * kN + i];
    if (d != kSum) return false;
  }
  if (r == kN - 1 && c == 0) {
    int d = 0;
    for (int i = 0; i < kN; ++i) d += b.cell[i * kN + (kN - 1 - i)];
    if (d != kSum) return false;
  }
  return true;
}

/// Leaf polls stop this many cells in: deeper subtrees are too small to
/// be worth a poll each.
constexpr int kPollCells = 8;

template <typename Exec>
long count_seq(Board& b, int pos) {
  if (pos == kCells) return 1;
  if (pos < kPollCells) Exec::poll();
  long found = 0;
  for (int v = 1; v <= kCells; ++v) {
    const std::uint32_t bit = 1u << (v - 1);
    if (b.used & bit) continue;
    b.cell[pos] = v;
    b.used |= bit;
    if (feasible(b, pos)) found += count_seq<Exec>(b, pos + 1);
    b.used &= ~bit;
    b.cell[pos] = 0;
  }
  return found;
}

/// Parallel driver: fork one task per feasible placement of the first
/// `kForkCells` cells (value-by-value), each continuing sequentially.
constexpr int kForkCells = 2;

template <typename Exec>
void count_par(const Board& b, int pos, std::atomic<long>& total) {
  if (pos == kForkCells) {
    Board local = b;
    total.fetch_add(count_seq<Exec>(local, pos), std::memory_order_relaxed);
    return;
  }
  // Expand all feasible placements of this cell, then descend into the
  // independent subtrees in parallel.
  std::vector<Board> children;
  for (int v = 1; v <= kCells; ++v) {
    const std::uint32_t bit = 1u << (v - 1);
    if (b.used & bit) continue;
    Board child = b;
    child.cell[pos] = v;
    child.used |= bit;
    if (feasible(child, pos)) children.push_back(child);
  }
  Exec::par_for(0, children.size(), 1, [&children, pos, &total](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) count_par<Exec>(children[i], pos + 1, total);
  });
}

template <typename Exec>
long run(int first_cell_limit) {
  std::atomic<long> total{0};
  Board b;
  for (int v = 1; v <= first_cell_limit && v <= kCells; ++v) {
    b.cell[0] = v;
    b.used = 1u << (v - 1);
    if (!feasible(b, 0)) continue;
    count_par<Exec>(b, 1, total);
  }
  return total.load();
}

}  // namespace

long seq(int first_cell_limit) {
  long total = 0;
  Board b;
  for (int v = 1; v <= first_cell_limit && v <= kCells; ++v) {
    b.cell[0] = v;
    b.used = 1u << (v - 1);
    total += count_seq<SeqExec>(b, 1);
  }
  return total;
}

long run_st(int first_cell_limit) { return run<StExec>(first_cell_limit); }
long run_ck(int first_cell_limit) { return run<CkExec>(first_cell_limit); }

}  // namespace apps::magic
