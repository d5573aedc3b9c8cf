// Data-parallel conveniences on top of fork/join: a blocked parallel
// for-loop and a tree reduction.  These are the public versions of the
// patterns the benchmark apps use internally (apps/exec_policy.hpp); the
// iteration order within a block is sequential, so reductions with a
// deterministic combiner are schedule-independent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"

namespace st {

/// Runs body(i) for every i in [begin, end), forking one fine-grain
/// thread per `grain`-sized block.  Blocks until every block completes.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  JoinCounter jc(static_cast<long>((end - begin + grain - 1) / grain));
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(lo + grain, end);
    fork([&body, lo, hi, &jc] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
      jc.finish();
    });
  }
  jc.join();
}

/// Tree reduction: combine(map(i)) over [begin, end) with a binary
/// combiner.  The reduction tree's shape is fixed by the range (not the
/// schedule), so floating-point results are deterministic.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain, T identity, Map&& map,
                  Combine&& combine) {
  const std::size_t n = end - begin;
  if (begin >= end) return identity;
  if (n <= grain) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, map(i));
    return acc;
  }
  const std::size_t mid = begin + n / 2;
  T left = identity;
  JoinCounter jc(1);
  fork([&, begin, mid] {
    left = parallel_reduce(begin, mid, grain, identity, map, combine);
    jc.finish();
  });
  T right = parallel_reduce(mid, end, grain, identity, map, combine);
  jc.join();
  return combine(left, right);
}

}  // namespace st
