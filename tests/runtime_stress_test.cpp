// Hardening: the native runtime under hostile configurations -- tiny
// regions (heap-fallback path), many workers on one core, mixed
// synchronization DAGs, worker-local storage, and rapid runtime
// construction/destruction.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/magic.hpp"
#include "runtime/runtime.hpp"
#include "sync/channel.hpp"
#include "sync/future.hpp"
#include "sync/join_counter.hpp"
#include "sync/mutex.hpp"
#include "sync/worker_local.hpp"
#include "util/rng.hpp"
#include "util/trace_export.hpp"
#include "util/trace_ring.hpp"

namespace {

long pfib(int n) {
  if (n < 2) return n;
  long a = 0;
  st::JoinCounter jc(1);
  st::fork([&a, n, &jc] {
    a = pfib(n - 1);
    jc.finish();
  });
  const long b = pfib(n - 2);
  jc.join();
  return a + b;
}

TEST(RuntimeStress, TinyRegionFallsBackToHeapSafely) {
  st::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.region_slots = 4;  // almost everything overflows to the heap
  st::Runtime rt(cfg);
  long result = 0;
  rt.run([&] { result = pfib(16); });
  EXPECT_EQ(result, 987);
  EXPECT_GT(rt.stats().heap_fallbacks, 0u);
}

TEST(RuntimeStress, HeapFallbackAndScavengeUnderSuspendChurn) {
  // Exhaust a tiny region with suspended (stack-holding) children: later
  // forks must fall back to the heap, a completion under a live top must
  // retire its slot, and the next allocation must scavenge that retired
  // slot instead of growing the fallback count further.  Single worker
  // keeps slot assignment deterministic: the injected root takes slot 0,
  // suspenders take 1..3, the rest overflow.
  st::RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.region_slots = 4;
  st::Runtime rt(cfg);
  std::uint64_t fallbacks_after_storm = 0;
  rt.run([&] {
    st::Continuation c[5];
    st::JoinCounter done(5);
    for (int i = 0; i < 5; ++i) {
      st::fork([&, i] {
        st::suspend(&c[i]);
        done.finish();
      });
    }
    EXPECT_GE(rt.stats().heap_fallbacks, 2u);  // children 3 and 4
    // Child 1 (slot 2) finishes under the live top: retires, not popped.
    st::restart(&c[1]);
    // Bump pointer still pinned at capacity -> this fork scavenges slot 2.
    st::fork([] {});
    EXPECT_GE(rt.stats().region_scavenges, 1u);
    for (int i : {0, 2, 3, 4}) st::restart(&c[i]);
    done.join();
    // Heap stacklets are released eagerly on completion and retired slots
    // are reclaimed by shrink: a second burst of LIFO forks must fit in
    // the region without growing the fallback count.
    fallbacks_after_storm = rt.stats().heap_fallbacks;
    for (int i = 0; i < 8; ++i) st::fork([] {});
  });
  EXPECT_EQ(rt.stats().heap_fallbacks, fallbacks_after_storm);
}

TEST(RuntimeStress, ParkedWorkersQuiesceWithNearZeroCpu) {
  // The staged idle path must end in a futex park, not a spin: with no
  // work outstanding every worker parks, and the process burns (almost)
  // no CPU across a wall-clock window.  The 0.5x threshold is generous --
  // spinning workers on this host saturate a core (cpu ~= wall) -- so
  // the assertion is robust to timeout-driven re-park cycles
  // (ST_PARK_TIMEOUT_US) while still catching a busy idle loop.
  st::Runtime rt(4);
  rt.run([] {});  // exercise inject -> wake -> drain once
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.parked_workers() < rt.num_workers() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(rt.parked_workers(), rt.num_workers()) << "workers failed to park";
  struct rusage before{}, after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const double wall = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  auto cpu_of = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
  };
  const double cpu = cpu_of(after) - cpu_of(before);
  EXPECT_LT(cpu, 0.5 * wall) << "idle workers are burning CPU";
  // Workers re-check at least every ST_PARK_TIMEOUT_US, so the
  // instantaneous parked count can dip mid-recheck; they must *return*
  // to fully parked promptly.
  const auto reparked_by = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.parked_workers() < rt.num_workers() &&
         std::chrono::steady_clock::now() < reparked_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.parked_workers(), rt.num_workers());
  // The observability surface for the new machinery is present even with
  // metrics disabled (zeroed histograms, live gauges).
  const std::string json = rt.metrics_json();
  EXPECT_NE(json.find("steal_cancel_latency"), std::string::npos);
  EXPECT_NE(json.find("region_scavenges"), std::string::npos);
  EXPECT_NE(json.find("\"parked\""), std::string::npos);
  // Parked workers must wake for new work after the quiescent window.
  int x = 0;
  rt.run([&] { x = 7; });
  EXPECT_EQ(x, 7);
}

TEST(RuntimeStress, EightWorkersOnOneCore) {
  st::Runtime rt(8);
  long result = 0;
  rt.run([&] { result = pfib(18); });
  EXPECT_EQ(result, 2584);
}

TEST(RuntimeStress, RapidRuntimeChurn) {
  for (int round = 0; round < 20; ++round) {
    st::Runtime rt(1 + static_cast<unsigned>(round % 3));
    int x = 0;
    rt.run([&] {
      // Joined: with 2-3 workers the root's continuation can be stolen
      // at the child's entry poll and finish run() before the child.
      st::JoinCounter jc(1);
      st::fork([&] {
        x = round;
        jc.finish();
      });
      jc.join();
    });
    EXPECT_EQ(x, round);
  }
}

TEST(RuntimeStress, StealServedEventsBalanceReceivedCounters) {
  // Every Figure 10 negotiation the victim serves must be observed by
  // exactly one thief: the steal-served trace events (and counter) must
  // balance the steals-received counter once in-flight replies settle.
  const std::uint64_t saved_mask = stu::trace_mask();
  stu::trace_set_mask(stu::trace_bit(stu::kTraceStealServed) |
                      stu::trace_bit(stu::kTraceStealReceived));
  {
    st::Runtime rt(4);
    long result = 0;
    rt.run([&] { result = pfib(20); });
    EXPECT_EQ(result, 6765);
    // A served reply is consumed by its thief within a bounded spin; give
    // the last in-flight negotiation a moment to settle.
    for (int spin = 0; spin < 100000; ++spin) {
      if (rt.stats().steals_served == rt.stats().steals_received) break;
      std::this_thread::yield();
    }
    const auto stats = rt.stats();
    EXPECT_EQ(stats.steals_served, stats.steals_received)
        << "a served steal vanished: victim handed out a task no thief ran";
    // The trace rings agree with the aggregate counters, record for
    // record (rings are far larger than the steal count here, no wrap).
    std::uint64_t served_events = 0, received_events = 0;
    for (unsigned w = 0; w < rt.num_workers(); ++w) {
      ASSERT_EQ(rt.worker(w).trace_ring().dropped(), 0u);
      for (const stu::TraceRecord& r : rt.worker(w).trace_ring().snapshot()) {
        served_events += r.event == stu::kTraceStealServed ? 1 : 0;
        received_events += r.event == stu::kTraceStealReceived ? 1 : 0;
      }
    }
    EXPECT_EQ(served_events, stats.steals_served);
    EXPECT_EQ(received_events, stats.steals_received);
    stu::trace_set_mask(saved_mask);
  }
  stu::trace_sink_clear();  // drop this test's records from the global sink
}

TEST(RuntimeStress, EveryStealAttemptHasOneOutcome) {
  // An attempt is a negotiation the thief posted (a lost port CAS is not
  // one), and each ends exactly once: served, rejected by the victim, or
  // withdrawn (cancelled) by the thief.  magic's flat fork loop over
  // polling leaves produces all three under contention.
  st::Runtime rt(4);
  long result = 0;
  rt.run([&] { result = apps::magic::run_st(1); });
  EXPECT_EQ(result, apps::magic::seq(1));
  // The thief counts an attempt together with its outcome, so the
  // identity holds in every snapshot, not only at quiescence.
  const st::RuntimeStats s = rt.stats();
  EXPECT_GT(s.steal_attempts, 0u);
  EXPECT_EQ(s.steal_attempts, s.steals_received + s.steals_rejected + s.steals_cancelled)
      << "received " << s.steals_received << " rejected " << s.steals_rejected
      << " cancelled " << s.steals_cancelled;
}

TEST(RuntimeStress, MixedSynchronizationDag) {
  // Producers feed a channel; consumers take mutex-protected notes and
  // fulfil futures; a final joiner checks global accounting.  All four
  // sync primitives interleave on a few workers.
  st::Runtime rt(3);
  rt.run([&] {
    constexpr int kItems = 400;
    st::Channel<int> ch(8);
    st::Mutex notes_lock;
    std::vector<int> notes;
    st::Future<long> total;
    st::JoinCounter consumers_done(2);

    st::fork([&] {
      for (int i = 1; i <= kItems; ++i) ch.send(i);
      ch.close();
    });

    std::atomic<long> sum{0};
    for (int c = 0; c < 2; ++c) {
      st::fork([&] {
        while (auto v = ch.recv()) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          if (*v % 97 == 0) {
            st::MutexGuard g(notes_lock);
            notes.push_back(*v);
          }
        }
        consumers_done.finish();
      });
    }
    consumers_done.join();
    total.set(sum.load());
    EXPECT_EQ(total.get(), static_cast<long>(kItems) * (kItems + 1) / 2);
    EXPECT_EQ(notes.size(), static_cast<std::size_t>(kItems / 97));
  });
}

class StressWorkerTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StressWorkerTest, RandomSuspendResumeStorm) {
  // Hundreds of threads suspend; a shuffler resumes them in random order
  // (readyq tail policy); all must complete exactly once.
  st::Runtime rt(GetParam());
  rt.run([&] {
    constexpr int kThreads = 300;
    std::vector<st::Continuation> parked(kThreads);
    std::vector<std::atomic<int>> completed(kThreads);
    st::JoinCounter all(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      st::fork([&, i] {
        st::suspend(&parked[static_cast<std::size_t>(i)]);
        completed[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        all.finish();
      });
    }
    std::vector<int> order(kThreads);
    for (int i = 0; i < kThreads; ++i) order[static_cast<std::size_t>(i)] = i;
    stu::Xoshiro256 rng(GetParam());
    for (int i = kThreads - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i + 1)))]);
    }
    for (int i : order) st::resume(&parked[static_cast<std::size_t>(i)]);
    all.join();
    for (int i = 0; i < kThreads; ++i) {
      ASSERT_EQ(completed[static_cast<std::size_t>(i)].load(), 1) << "thread " << i;
    }
  });
}

TEST_P(StressWorkerTest, WorkerLocalAccumulation) {
  st::Runtime rt(GetParam());
  st::WorkerLocal<long> counters(rt, 0);
  constexpr int kTasks = 2000;
  rt.run([&] {
    st::JoinCounter jc(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      st::fork([&] {
        ++counters.local();  // whichever worker runs this task
        jc.finish();
      });
    }
    jc.join();
  });
  EXPECT_EQ(counters.combine(0L, [](long a, long b) { return a + b; }), kTasks);
}

TEST_P(StressWorkerTest, FutureFanOutFanIn) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    std::vector<st::Future<long>> layer1;
    for (int i = 0; i < 32; ++i) {
      layer1.push_back(st::spawn([i] { return static_cast<long>(i); }));
    }
    auto total = st::spawn([&] {
      long sum = 0;
      for (auto& f : layer1) sum += f.get();
      return sum;
    });
    EXPECT_EQ(total.get(), 496);
  });
}

INSTANTIATE_TEST_SUITE_P(Workers, StressWorkerTest, ::testing::Values(1u, 2u, 4u));

// A fork's parent record lives in its child's stacklet header.  A nested
// chain deep enough to hold over half the region's slots at once keeps
// ~1000 such records on the fork deque; thieves take them from the tail
// -- out of headers of stacklets whose chains keep running below -- while
// the leaf polls, and every kGateEvery-th child suspends on a gate first,
// so suspend() consumes its parent's record from the header too.
struct DeepChain {
  static constexpr int kDepth = 1200;  // under the default 2048 region slots
  static constexpr int kGateEvery = 64;
  int want_stolen = 0;
  std::chrono::steady_clock::time_point deadline;
  std::atomic<int> stolen{0};
};

long deep_chain(DeepChain& dc, int d) {
  if (d == 0) {
    // The leaf polls: each poll may hand a thief the outermost record.
    for (int polls = 0; polls < 1000 || (dc.stolen.load(std::memory_order_relaxed) <
                                             dc.want_stolen &&
                                         std::chrono::steady_clock::now() < dc.deadline);
         ++polls) {
      st::poll();
    }
    return 0;
  }
  const bool gated = d % DeepChain::kGateEvery == 0;
  st::JoinCounter gate(gated ? 1 : 0);
  st::JoinCounter jc(1);
  long sub = 0;
  const unsigned home = st::worker_id();
  st::fork([&] {
    gate.join();  // a gated child suspends here: its parent resumes early
    sub = deep_chain(dc, d - 1) + 1;
    jc.finish();
  });
  // Only a steal resumes the fork's continuation on another worker (a
  // suspending or finishing child pops the record on this one).
  if (st::worker_id() != home) dc.stolen.fetch_add(1, std::memory_order_relaxed);
  if (gated) gate.finish();
  jc.join();
  return sub;
}

class DeepChainTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeepChainTest, ParentRecordsInChildHeadersSurviveStealsAndSuspends) {
  st::Runtime rt(GetParam());
  DeepChain dc;
  dc.want_stolen = GetParam() > 1 ? 16 : 0;
  for (int round = 0; round < 2; ++round) {
    dc.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    long result = -1;
    rt.run([&] { result = deep_chain(dc, DeepChain::kDepth); });
    ASSERT_EQ(result, DeepChain::kDepth) << "round " << round;
  }
  const st::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.heap_fallbacks, 0u);
  EXPECT_GE(s.region_high_water, static_cast<std::uint64_t>(DeepChain::kDepth));
  EXPECT_GE(s.suspends, 2u * (DeepChain::kDepth / DeepChain::kGateEvery));
  EXPECT_EQ(s.steal_attempts, s.steals_received + s.steals_rejected + s.steals_cancelled)
      << "received " << s.steals_received << " rejected " << s.steals_rejected
      << " cancelled " << s.steals_cancelled;
  if (GetParam() > 1) {
    EXPECT_GT(dc.stolen.load(), 0);
    EXPECT_GE(s.steals_received, static_cast<std::uint64_t>(dc.stolen.load()));
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, DeepChainTest, ::testing::Values(1u, 4u));

// Counted forks, st::fork(jc, f), join in two ways.  A child that
// finishes under its parent touches the counter not at all; a detached
// one is counted -- its parent adds it when it resumes, and its
// completion hook subtracts it and wakes the joiner.  In this fib tree
// every kGateEvery-th child first suspends on a gate its parent opens
// after the fork returns (detached by suspending); on 4 workers thieves
// also take parents at the children's entry polls (detached by a steal).
struct CountedTree {
  static constexpr long kGateEvery = 64;
  std::atomic<long> forks{0};
};

long counted_fib(CountedTree& t, int n) {
  if (n < 2) return n;
  const bool gated = t.forks.fetch_add(1, std::memory_order_relaxed) % CountedTree::kGateEvery == 0;
  st::JoinCounter gate(gated ? 1 : 0);
  st::JoinCounter jc;
  long a = 0;
  st::fork(jc, [&] {
    gate.join();  // a gated child suspends here: its parent resumes early
    a = counted_fib(t, n - 1);
  });
  if (gated) gate.finish();
  const long b = counted_fib(t, n - 2);
  jc.join();
  return a + b;
}

class CountedForkTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CountedForkTest, JoinedAndDetachedChildrenAreCountedExactly) {
  constexpr int kN = 20;  // fib(20) = 6765, 10945 forks per tree
  st::Runtime rt(GetParam());
  CountedTree tree;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int rounds = 0;
  do {
    bool reused_ok = true;
    long result = -1;
    rt.run([&] {
      // One counter for the whole round, reused after each join.
      st::JoinCounter root;
      for (int i = 0; i < 3; ++i) {
        st::fork(root, [&] { result = counted_fib(tree, kN); });
        root.join();
        reused_ok = reused_ok && root.outstanding() == 0 && result == 6765;
      }
    });
    ASSERT_EQ(result, 6765) << "round " << rounds;
    ASSERT_TRUE(reused_ok) << "round " << rounds;
    ++rounds;
  } while (GetParam() > 1 && rt.stats().steals_received == 0 &&
           std::chrono::steady_clock::now() < deadline);
  const st::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.steal_attempts, s.steals_received + s.steals_rejected + s.steals_cancelled)
      << "received " << s.steals_received << " rejected " << s.steals_rejected
      << " cancelled " << s.steals_cancelled;
  EXPECT_GE(s.suspends, static_cast<std::uint64_t>(rounds) * 3 * 10945 / CountedTree::kGateEvery);
  if (GetParam() > 1) {
    EXPECT_GT(s.steals_received, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, CountedForkTest, ::testing::Values(1u, 4u));

}  // namespace
