#include "apps/knapsack.hpp"

#include <algorithm>
#include <atomic>

#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"
#include "util/rng.hpp"

namespace apps::knapsack {

Instance make_instance(int n_items, std::uint64_t seed) {
  stu::Xoshiro256 rng(seed);
  Instance inst;
  long total_weight = 0;
  inst.items.reserve(static_cast<std::size_t>(n_items));
  for (int i = 0; i < n_items; ++i) {
    // Strongly correlated items with a narrow weight band (subset-sum-like)
    // keep the fractional bound loose, which is what makes branch-and-bound
    // actually branch -- the regime the Cilk benchmark exercises.
    const long w = rng.range(50, 60);
    Item it{w + 10, w};
    total_weight += it.weight;
    inst.items.push_back(it);
  }
  inst.capacity = total_weight / 2;
  std::sort(inst.items.begin(), inst.items.end(), [](const Item& a, const Item& b) {
    return a.value * b.weight > b.value * a.weight;  // density, descending
  });
  return inst;
}

namespace {

/// Fractional upper bound on the value attainable from item i onward.
long upper_bound(const Instance& inst, std::size_t i, long cap, long value) {
  long bound = value;
  for (; i < inst.items.size() && cap > 0; ++i) {
    const Item& it = inst.items[i];
    if (it.weight <= cap) {
      bound += it.value;
      cap -= it.weight;
    } else {
      bound += it.value * cap / it.weight;
      break;
    }
  }
  return bound;
}

void search_seq(const Instance& inst, std::size_t i, long cap, long value, long& best) {
  if (value > best) best = value;
  if (i == inst.items.size() || upper_bound(inst, i, cap, value) <= best) return;
  const Item& it = inst.items[i];
  if (it.weight <= cap) search_seq(inst, i + 1, cap - it.weight, value + it.value, best);
  search_seq(inst, i + 1, cap, value, best);
}

void relax_best(std::atomic<long>& best, long value) {
  long cur = best.load(std::memory_order_relaxed);
  while (value > cur && !best.compare_exchange_weak(cur, value, std::memory_order_acq_rel)) {
  }
}

constexpr std::size_t kSpawnDepth = 10;  // fork the top of the decision tree

void search_st(const Instance& inst, std::size_t i, long cap, long value,
               std::atomic<long>& best) {
  relax_best(best, value);
  if (i == inst.items.size() ||
      upper_bound(inst, i, cap, value) <= best.load(std::memory_order_relaxed)) {
    return;
  }
  const Item& it = inst.items[i];
  if (i < kSpawnDepth && it.weight <= cap) {
    st::JoinCounter jc;
    st::fork(jc, [&inst, i, cap, value, &best, &it] {
      search_st(inst, i + 1, cap - it.weight, value + it.value, best);
    });
    search_st(inst, i + 1, cap, value, best);
    jc.join();
  } else {
    if (it.weight <= cap) search_st(inst, i + 1, cap - it.weight, value + it.value, best);
    search_st(inst, i + 1, cap, value, best);
  }
}

void search_ck(const Instance& inst, std::size_t i, long cap, long value,
               std::atomic<long>& best) {
  relax_best(best, value);
  if (i == inst.items.size() ||
      upper_bound(inst, i, cap, value) <= best.load(std::memory_order_relaxed)) {
    return;
  }
  const Item& it = inst.items[i];
  if (i < kSpawnDepth && it.weight <= cap) {
    ck::SpawnGroup g;
    g.spawn([&inst, i, cap, value, &best, &it] {
      search_ck(inst, i + 1, cap - it.weight, value + it.value, best);
    });
    search_ck(inst, i + 1, cap, value, best);
    g.sync();
  } else {
    if (it.weight <= cap) search_ck(inst, i + 1, cap - it.weight, value + it.value, best);
    search_ck(inst, i + 1, cap, value, best);
  }
}

}  // namespace

long seq(const Instance& inst) {
  long best = 0;
  search_seq(inst, 0, inst.capacity, 0, best);
  return best;
}

long run_st(const Instance& inst) {
  std::atomic<long> best{0};
  search_st(inst, 0, inst.capacity, 0, best);
  return best.load();
}

long run_ck(const Instance& inst) {
  std::atomic<long> best{0};
  search_ck(inst, 0, inst.capacity, 0, best);
  return best.load();
}

}  // namespace apps::knapsack
