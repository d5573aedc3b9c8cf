// Microbenchmarks of the runtime primitives (google-benchmark).
//
// The paper's core performance claim is that an asynchronous call costs
// about as much as an ordinary procedure call, with suspension/migration
// paying more.  These benches price every primitive of the native
// runtime and the baseline so the claim's reproduction-level analogue is
// measurable: fork/join vs plain call, suspend/resume, context switch,
// the exported-set heap, the readyq deque, and stacklet allocation.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench/harness.hpp"
#include "cilk/cilkstyle.hpp"
#include "runtime/context.hpp"
#include "runtime/runtime.hpp"
#include "runtime/stacklet.hpp"
#include "sync/future.hpp"
#include "sync/join_counter.hpp"
#include "util/max_heap.hpp"
#include "util/metrics.hpp"
#include "util/owner_deque.hpp"
#include "util/trace_export.hpp"
#include "util/trace_ring.hpp"

namespace {

// -- reference: a plain (non-inlined) call --------------------------------
__attribute__((noinline)) long plain_callee(long x) {
  benchmark::DoNotOptimize(x);
  return x + 1;
}

void BM_PlainCall(benchmark::State& state) {
  long v = 0;
  for (auto _ : state) v = plain_callee(v);
  benchmark::DoNotOptimize(v);
}
BENCHMARK(BM_PlainCall);

// -- raw context switch (one round trip = 2 st_ctx_swap) ------------------
struct PingPongCtx {
  st::MachineContext main_ctx, coro_ctx;
  bool stop = false;
};

st::ContextExit pingpong_coro(void* msg, void* arg) {
  st::run_switch_msg(static_cast<st::SwitchMsg*>(msg));
  auto* pp = static_cast<PingPongCtx*>(arg);
  for (;;) st::ctx_swap(pp->coro_ctx, pp->main_ctx.sp, nullptr);
}

void BM_ContextSwitchRoundTrip(benchmark::State& state) {
  PingPongCtx pp;
  auto stack = std::make_unique<char[]>(64 * 1024);
  void* sp = st::st_ctx_prepare(stack.get(), 64 * 1024, &pingpong_coro, &pp);
  st::ctx_swap(pp.main_ctx, sp, nullptr);  // enter the coroutine once
  for (auto _ : state) {
    st::ctx_swap(pp.main_ctx, pp.coro_ctx.sp, nullptr);
  }
}
BENCHMARK(BM_ContextSwitchRoundTrip);

// -- fork fast path (empty child, never stolen) ---------------------------
// Tracing is compiled in but disabled here: each hook is a relaxed mask
// load + predictable branch, so this must stay within noise of a build
// without the tracing layer (the acceptance gate for the tracing PR).
void BM_ForkFastPath(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    for (auto _ : state) {
      st::fork([] {});
    }
  });
}
BENCHMARK(BM_ForkFastPath);

// -- the disabled trace hook in isolation ----------------------------------
// Prices exactly what every instrumentation site pays when ST_TRACE is
// unset: one relaxed load of the global event mask plus a bit test.
void BM_TraceFlagCheck(benchmark::State& state) {
  bool any = false;
  for (auto _ : state) {
    any |= stu::trace_enabled(stu::kTraceFork);
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_TraceFlagCheck);

// -- fork fast path with tracing ON ----------------------------------------
// The enabled-path price: mask test taken + a 32-byte ring-buffer record
// per fork/stacklet event.  Compare against BM_ForkFastPath for the
// perturbation a traced run accepts.
void BM_ForkFastPathTraced(benchmark::State& state) {
  const std::uint64_t saved = stu::trace_mask();
  stu::trace_set_mask(stu::kTraceAll);
  {
    st::Runtime rt(1);
    rt.run([&] {
      for (auto _ : state) {
        st::fork([] {});
      }
    });
    stu::trace_set_mask(saved);
  }  // ~Runtime flushes with the mask already restored
  stu::trace_sink_clear();  // keep benchmark traffic out of ST_TRACE output
}
BENCHMARK(BM_ForkFastPathTraced);

// -- the disabled metrics gate in isolation --------------------------------
// Prices what every timed metrics site (steal latency, suspend->restart,
// deque-depth sample) pays when ST_METRICS is unset: one relaxed load of
// the global enable flag plus a predictable branch.
void BM_MetricsFlagCheck(benchmark::State& state) {
  bool any = false;
  for (auto _ : state) {
    any |= stu::metrics_enabled();
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_MetricsFlagCheck);

// -- one histogram record ---------------------------------------------------
// The enabled-path price of a latency sample: bucket_of (clz + shifts)
// plus a handful of relaxed atomic load/stores on owner-local lines.
void BM_HistogramRecord(benchmark::State& state) {
  stu::LogHistogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 16;  // vary buckets
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

// -- fork fast path with metrics ON -----------------------------------------
// The metered fork adds one deque-depth histogram record per fork plus
// the timestamp stamp at suspension sites; compare against
// BM_ForkFastPath for the perturbation a metered run accepts.
void BM_ForkFastPathMetered(benchmark::State& state) {
  stu::metrics_set_enabled(true);
  {
    st::Runtime rt(1);
    rt.run([&] {
      for (auto _ : state) {
        st::fork([] {});
      }
    });
    stu::metrics_set_enabled(false);
  }
}
BENCHMARK(BM_ForkFastPathMetered);

// -- fork + join-counter round trip ---------------------------------------
// The manual form: the child's finish() is one RMW on the counter.
void BM_ForkJoinCounter(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    for (auto _ : state) {
      st::JoinCounter jc(1);
      st::fork([&jc] { jc.finish(); });
      jc.join();
    }
  });
}
BENCHMARK(BM_ForkJoinCounter);

// -- counted fork + join --------------------------------------------------
// st::fork(jc, f): a child that finishes under its parent touches the
// counter not at all, and the fork site releases its stacklet inline, so
// the round trip has no RMW and no indirect call (compare with
// BM_ForkJoinCounter's manual finish()).
void BM_ForkJoinCounted(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    for (auto _ : state) {
      st::JoinCounter jc;
      st::fork(jc, [] {});
      jc.join();
    }
  });
}
BENCHMARK(BM_ForkJoinCounted);

// -- fork/join down a fib-shaped tree -------------------------------------
// BM_ForkFastPath's flat loop never returns past a fork, so it cannot see
// what a fork's exit does to the return-stack buffer; in a recursion every
// parent frame returns through the frames above it after its children
// exit, and each stale RSB entry a fork leaves behind costs a mispredicted
// return there.  Reported per fork (fib(n+1) - 1 of them per tree).  The
// forks are counted, the apps' shape.
long tree_fib(int n) {
  if (n < 2) return n;
  long a = 0;
  st::JoinCounter jc;
  st::fork(jc, [&a, n] { a = tree_fib(n - 1); });
  const long b = tree_fib(n - 2);
  jc.join();
  return a + b;
}

void BM_ForkJoinTree(benchmark::State& state) {
  constexpr int kDepth = 16;
  long forks = 0;
  st::Runtime rt(1);
  rt.run([&] {
    forks = tree_fib(kDepth + 1) - 1;  // also warms the stacklet region
    for (auto _ : state) benchmark::DoNotOptimize(tree_fib(kDepth));
  });
  state.counters["per_fork"] = benchmark::Counter(
      static_cast<double>(forks),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ForkJoinTree);

// -- fork/join down a 16-deep chain ---------------------------------------
// Nesting depth alone: each level forks one child that forks the next and
// joins it, so every fork is 16 frames deep in forks and every return
// crosses all of them -- unlike BM_ForkJoinTree, whose leaves are shallow
// half the time, or the flat benches, which never nest.  Reported per
// fork (16 per chain).
constexpr int kChainDepth = 16;

__attribute__((noinline)) void fork_chain(int depth) {
  if (depth == 0) return;
  st::JoinCounter jc;
  st::fork(jc, [depth] { fork_chain(depth - 1); });
  jc.join();
}

void BM_ForkJoinChain(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    fork_chain(kChainDepth);  // warm the stacklet region
    for (auto _ : state) fork_chain(kChainDepth);
  });
  state.counters["per_fork"] = benchmark::Counter(
      kChainDepth, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ForkJoinChain);

// -- the future call: spawn + get ------------------------------------------
// One cached cell, one handle and the get() fast path: the child finishes
// first under LIFO, so the fork site marks the cell ready with a plain
// store (no set() exchange).  Compare with BM_ForkJoinCounted: neither
// pays an RMW per fork.
void BM_SpawnGet(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    long sum = 0;
    for (auto _ : state) {
      st::Future<long> f = st::spawn([] { return 1L; });
      sum += f.get();
    }
    benchmark::DoNotOptimize(sum);
  });
}
BENCHMARK(BM_SpawnGet);

// -- the future call down a fib-shaped tree --------------------------------
// BM_ForkJoinTree with a spawn + get in place of fork + join counter (the
// shape of perfbench's `futures` kernel).  Reported per spawn.
long tree_fut_fib(int n) {
  if (n < 2) return n;
  st::Future<long> a = st::spawn([n] { return tree_fut_fib(n - 1); });
  const long b = tree_fut_fib(n - 2);
  return a.get() + b;
}

void BM_SpawnGetTree(benchmark::State& state) {
  constexpr int kDepth = 16;
  long spawns = 0;
  st::Runtime rt(1);
  rt.run([&] {
    spawns = tree_fut_fib(kDepth + 1) - 1;  // also warms the region and cell cache
    for (auto _ : state) benchmark::DoNotOptimize(tree_fut_fib(kDepth));
  });
  state.counters["per_spawn"] = benchmark::Counter(
      static_cast<double>(spawns),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SpawnGetTree);

// -- one future cell through the worker's cache, no fork -------------------
// A handle-only Future: cell taken from the cache, last handle frees it
// back.  The storage share of BM_SpawnGet.
void BM_FutureCellCycle(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    for (auto _ : state) {
      st::Future<long> f;
      benchmark::DoNotOptimize(&f);
    }
  });
}
BENCHMARK(BM_FutureCellCycle);

// -- suspend + deferred resume round trip ----------------------------------
void BM_SuspendResume(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    for (auto _ : state) {
      st::Continuation c;
      st::JoinCounter done(1);
      st::fork([&] {
        st::suspend(&c);
        done.finish();
      });
      st::resume(&c);
      done.join();
    }
  });
}
BENCHMARK(BM_SuspendResume);

// -- the baseline's spawn/sync ---------------------------------------------
void BM_CilkstyleSpawnSync(benchmark::State& state) {
  ck::Runtime rt(1);
  rt.run([&] {
    for (auto _ : state) {
      ck::SpawnGroup g;
      g.spawn([] {});
      g.sync();
    }
  });
}
BENCHMARK(BM_CilkstyleSpawnSync);

// -- stacklet allocation (the per-fork storage cost) -----------------------
// release() is the cross-worker path a migrated child's completion takes
// (retire mark + shared counter RMW); a child finishing on its home
// worker pays release_local() instead (pop the top slot, no RMW).
void BM_StackletAllocRelease(benchmark::State& state) {
  st::StackRegion region(64 * 1024, 256);
  for (auto _ : state) {
    st::Stacklet* s = region.allocate();
    st::StackRegion::release(s);
  }
}
BENCHMARK(BM_StackletAllocRelease);

void BM_StackletAllocReleaseLocal(benchmark::State& state) {
  st::StackRegion region(64 * 1024, 256);
  for (auto _ : state) {
    st::Stacklet* s = region.allocate();
    region.release_local(s);
  }
}
BENCHMARK(BM_StackletAllocReleaseLocal);

// -- exported-set heap (insert + pop-max, the shrink path) ----------------
void BM_ExportedSetHeap(benchmark::State& state) {
  stu::MaxHeap<long> heap;
  long i = 0;
  for (auto _ : state) {
    heap.push(i++);
    heap.push(i++);
    benchmark::DoNotOptimize(heap.max());
    heap.pop_max();
    heap.pop_max();
  }
}
BENCHMARK(BM_ExportedSetHeap);

// -- readyq deque ops -------------------------------------------------------
void BM_ReadyqPushPop(benchmark::State& state) {
  stu::OwnerDeque<void*> dq;
  int payload = 0;
  for (auto _ : state) {
    dq.push_head(&payload);
    dq.push_tail(&payload);
    benchmark::DoNotOptimize(dq.pop_tail());
    benchmark::DoNotOptimize(dq.pop_head());
  }
}
BENCHMARK(BM_ReadyqPushPop);

// -- steal-request port handshake (uncontended poll) ------------------------
void BM_PollNoRequest(benchmark::State& state) {
  st::Runtime rt(1);
  rt.run([&] {
    for (auto _ : state) st::poll();
  });
}
BENCHMARK(BM_PollNoRequest);

// -- wake-from-park latency -------------------------------------------------
// Prices the idle path's futex parking (docs/OBSERVABILITY.md): with every
// worker parked on the work epoch, how long from injecting a root task to
// its completion?  Covers the futex wake, the OS placing the woken thread,
// and the injected-queue pop -- the latency a quiescent runtime adds to
// the first work submitted after an idle period.  Manual time: the
// wait-until-parked setup between measurements must not be counted.
void BM_IdleWakeLatency(benchmark::State& state) {
  st::Runtime rt(2);
  for (auto _ : state) {
    while (rt.parked_workers() < rt.num_workers()) std::this_thread::yield();
    const auto t0 = std::chrono::steady_clock::now();
    rt.run([] {});
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
}
BENCHMARK(BM_IdleWakeLatency)->UseManualTime();

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): strips the harness-level
// `--json [path]` flag (shared with the figure/table suites) before
// handing the rest to google-benchmark, and mirrors every per-iteration
// run into the machine-readable results file.  A run's time-per-unit
// counters (inverted rates such as the trees' per_fork / per_spawn) get
// rows of their own, `<benchmark>/<counter>`, in ns per unit: a tree's
// per-iteration time mixes the fork cost with the tree's size.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        const std::string name = run.benchmark_name();
        bench::json_writer().add(name, run.GetAdjustedRealTime(),
                                 static_cast<long>(run.iterations));
        for (const auto& [key, counter] : run.counters) {
          const bool per_unit = (counter.flags & benchmark::Counter::kIsRate) != 0 &&
                                (counter.flags & benchmark::Counter::kInvert) != 0;
          if (!per_unit) continue;
          bench::json_writer().add(name + "/" + key, counter.value * 1e9,
                                   static_cast<long>(run.iterations));
        }
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

int main(int argc, char** argv) {
  bench::parse_json_flag(argc, argv, "micro_primitives");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return bench::json_finish("micro_primitives") ? 0 : 1;
}
