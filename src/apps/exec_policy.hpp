// Execution policies: the same divide-and-conquer kernels instantiated
// for sequential C++, StackThreads/MP, and cilkstyle.  Using one shared
// kernel per app guarantees all three variants perform bit-identical
// floating-point operations in the same per-element order, so checksums
// are directly comparable (what Figure 21 relies on when normalizing
// parallel codes against sequential C).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"

namespace apps {

/// Runs all thunks on the calling thread, in order.
struct SeqExec {
  template <typename... F>
  static void par(F&&... fs) {
    (static_cast<void>(fs()), ...);
  }

  template <typename Body>
  static void par_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
    for (std::size_t i = begin; i < end; i += grain) {
      body(i, std::min(i + grain, end));
    }
  }

  static void poll() {}
};

/// Forks every thunk as a fine-grain thread; joins before returning.
struct StExec {
  template <typename... F>
  static void par(F&&... fs) {
    constexpr int kN = sizeof...(fs);
    st::JoinCounter jc(kN);
    (st::fork([&fs, &jc] {
      fs();
      jc.finish();
    }),
     ...);
    jc.join();
  }

  template <typename Body>
  static void par_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
    const std::size_t chunks = begin < end ? (end - begin + grain - 1) / grain : 0;
    st::JoinCounter jc(static_cast<long>(chunks));
    for (std::size_t i = begin; i < end; i += grain) {
      const std::size_t hi = std::min(i + grain, end);
      st::fork([&body, i, hi, &jc] {
        body(i, hi);
        jc.finish();
      });
    }
    jc.join();
  }

  /// Feeley-style poll for fork-free leaf code: lets a thief take this
  /// worker's oldest parent continuation while the leaf runs.  Leaves
  /// space their polls so one costs nothing measurable at P=1.
  static void poll() { st::poll(); }
};

/// Spawns every thunk as a heap task; helps until the group drains.
struct CkExec {
  template <typename... F>
  static void par(F&&... fs) {
    ck::SpawnGroup g;
    (g.spawn([&fs] { fs(); }), ...);
    g.sync();
  }

  template <typename Body>
  static void par_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
    ck::SpawnGroup g;
    for (std::size_t i = begin; i < end; i += grain) {
      const std::size_t hi = std::min(i + grain, end);
      g.spawn([&body, i, hi] { body(i, hi); });
    }
    g.sync();
  }

  static void poll() {}
};

}  // namespace apps
