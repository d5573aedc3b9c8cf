// Synchronization primitives built purely on suspend/resume: join
// counters (both wake policies), futures, mutex, semaphore, channel,
// barrier -- each exercised across worker counts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "analysis/hb.hpp"
#include "runtime/annotate.hpp"
#include "runtime/runtime.hpp"
#include "sync/channel.hpp"
#include "sync/future.hpp"
#include "sync/join_counter.hpp"
#include "sync/mutex.hpp"

namespace {

/// Counts live instances, so a leaked or doubly freed future cell shows.
struct Tracked {
  static inline std::atomic<int> live{0};
  int v = 0;
  explicit Tracked(int x) : v(x) { live.fetch_add(1); }
  Tracked(const Tracked& o) : v(o.v) { live.fetch_add(1); }
  Tracked(Tracked&& o) noexcept : v(o.v) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};

class SyncWorkerTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SyncWorkerTest, JoinCounterWaitsForAllTasks) {
  st::Runtime rt(GetParam());
  std::atomic<int> done{0};
  rt.run([&] {
    st::JoinCounter jc(8);
    for (int i = 0; i < 8; ++i) {
      st::fork([&] {
        done.fetch_add(1, std::memory_order_relaxed);
        jc.finish();
      });
    }
    jc.join();
    EXPECT_EQ(done.load(), 8);
  });
}

TEST_P(SyncWorkerTest, JoinCounterImmediatePolicy) {
  st::Runtime rt(GetParam());
  std::atomic<int> done{0};
  rt.run([&] {
    st::JoinCounter jc(4, st::WakePolicy::kImmediate);
    for (int i = 0; i < 4; ++i) {
      st::fork([&] {
        done.fetch_add(1, std::memory_order_relaxed);
        jc.finish();
      });
    }
    jc.join();
    EXPECT_EQ(done.load(), 4);
  });
}

TEST_P(SyncWorkerTest, JoinCounterAddAfterConstruction) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::JoinCounter jc;
    for (int i = 0; i < 5; ++i) {
      jc.add();
      st::fork([&] { jc.finish(); });
    }
    jc.join();
    EXPECT_EQ(jc.outstanding(), 0);
  });
}

TEST_P(SyncWorkerTest, FutureDeliversValue) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    auto f = st::spawn([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
    EXPECT_TRUE(f.ready());
  });
}

TEST_P(SyncWorkerTest, FutureChainsAndFansIn) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    std::vector<st::Future<int>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(st::spawn([i] { return i * i; }));
    }
    int sum = 0;
    for (auto& f : futures) sum += f.get();
    EXPECT_EQ(sum, 1240);  // sum of squares 0..15
  });
}

TEST_P(SyncWorkerTest, FutureMultipleWaiters) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::Future<int> cell;
    std::atomic<int> seen{0};
    st::JoinCounter jc(3);
    for (int i = 0; i < 3; ++i) {
      st::fork([&] {
        seen.fetch_add(cell.get(), std::memory_order_relaxed);
        jc.finish();
      });
    }
    // All three waiters may be suspended now (they ran LIFO before us).
    cell.set(7);
    jc.join();
    EXPECT_EQ(seen.load(), 21);
  });
}

TEST_P(SyncWorkerTest, FutureHandleSetterWithWaitersIsUnchanged) {
  // A default-constructed cell has no pending producer: its handles own it
  // alone, and whichever of them drops last frees it.  This round's own
  // handle drops first, so a waiter or the setter frees the cell.
  std::atomic<int> seen{0};
  bool block_returned = true;
  {
    st::Runtime rt(GetParam());
    rt.run([&] {
      for (int round = 0; round < 50; ++round) {
        st::JoinCounter jc(4);
        {
          st::Future<Tracked> cell;
          for (int i = 0; i < 3; ++i) {
            st::fork([cell, &jc, &seen, round] {
              if (cell.get().v == round) seen.fetch_add(1, std::memory_order_relaxed);
              jc.finish();
            });
          }
          st::fork([cell, &jc, round] {
            cell.set(Tracked(round));
            jc.finish();
          });
        }
        jc.join();
      }
      if (GetParam() == 1) {
        // A handle never set returns its block to the cache when dropped.
        const unsigned before = rt.worker(0).cell_cache().size();
        { st::Future<Tracked> never_set; }
        block_returned = before > 0 && rt.worker(0).cell_cache().size() == before;
      }
    });
  }
  EXPECT_EQ(seen.load(), 150);
  EXPECT_TRUE(block_returned);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST_P(SyncWorkerTest, MutexProtectsCounter) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::Mutex m;
    long counter = 0;
    constexpr int kTasks = 64;
    constexpr int kIters = 50;
    st::JoinCounter jc(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      st::fork([&] {
        for (int i = 0; i < kIters; ++i) {
          st::MutexGuard g(m);
          ++counter;
        }
        jc.finish();
      });
    }
    jc.join();
    EXPECT_EQ(counter, static_cast<long>(kTasks) * kIters);
  });
}

TEST_P(SyncWorkerTest, MutexTryLock) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::Mutex m;
    EXPECT_TRUE(m.try_lock());
    EXPECT_FALSE(m.try_lock());
    m.unlock();
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
}

TEST_P(SyncWorkerTest, SemaphoreBoundsConcurrency) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::Semaphore sem(2);
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    st::JoinCounter jc(10);
    for (int i = 0; i < 10; ++i) {
      st::fork([&] {
        sem.acquire();
        const int now = inside.fetch_add(1, std::memory_order_relaxed) + 1;
        int old = peak.load(std::memory_order_relaxed);
        while (now > old && !peak.compare_exchange_weak(old, now)) {
        }
        inside.fetch_sub(1, std::memory_order_relaxed);
        sem.release();
        jc.finish();
      });
    }
    jc.join();
    EXPECT_LE(peak.load(), 2);
    EXPECT_EQ(sem.available(), 2);
  });
}

TEST_P(SyncWorkerTest, ChannelTransfersInOrderSingleProducer) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::Channel<int> ch(4);
    std::vector<int> received;
    st::JoinCounter jc(1);
    st::fork([&] {
      for (int i = 0; i < 32; ++i) ch.send(i);  // blocks when full
      ch.close();
      jc.finish();
    });
    while (auto v = ch.recv()) received.push_back(*v);
    jc.join();
    std::vector<int> expect(32);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(received, expect);
  });
}

TEST_P(SyncWorkerTest, ChannelManyProducersOneConsumer) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::Channel<int> ch(2);
    constexpr int kProducers = 6;
    constexpr int kEach = 20;
    st::JoinCounter producers(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      st::fork([&] {
        for (int i = 0; i < kEach; ++i) ch.send(1);
        producers.finish();
      });
    }
    long sum = 0;
    for (int i = 0; i < kProducers * kEach; ++i) {
      auto v = ch.recv();
      ASSERT_TRUE(v.has_value());
      sum += *v;
    }
    producers.join();
    EXPECT_EQ(sum, kProducers * kEach);
  });
}

TEST_P(SyncWorkerTest, ChannelCloseWakesReceivers) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    st::Channel<int> ch(1);
    std::atomic<int> nullopts{0};
    st::JoinCounter jc(3);
    for (int i = 0; i < 3; ++i) {
      st::fork([&] {
        if (!ch.recv().has_value()) nullopts.fetch_add(1, std::memory_order_relaxed);
        jc.finish();
      });
    }
    ch.close();
    jc.join();
    EXPECT_EQ(nullopts.load(), 3);
  });
}

TEST_P(SyncWorkerTest, BarrierSynchronizesRounds) {
  st::Runtime rt(GetParam());
  rt.run([&] {
    constexpr int kParties = 4;
    constexpr int kRounds = 5;
    st::Barrier barrier(kParties);
    std::atomic<int> phase_sum{0};
    std::atomic<int> releasers{0};
    st::JoinCounter jc(kParties);
    for (int p = 0; p < kParties; ++p) {
      st::fork([&] {
        for (int r = 0; r < kRounds; ++r) {
          phase_sum.fetch_add(1, std::memory_order_relaxed);
          const int before = phase_sum.load(std::memory_order_relaxed);
          if (barrier.arrive_and_wait()) releasers.fetch_add(1, std::memory_order_relaxed);
          // Everyone in this round arrived before anyone left it.
          EXPECT_GE(phase_sum.load(std::memory_order_relaxed), before);
          EXPECT_GE(phase_sum.load(std::memory_order_relaxed), (r + 1) * kParties - kParties + 1);
        }
        jc.finish();
      });
    }
    jc.join();
    EXPECT_EQ(releasers.load(), kRounds);  // exactly one releaser per round
  });
}

TEST_P(SyncWorkerTest, CountedForksMixWithManualAddAndFinish) {
  // One counter carries counted forks (some suspend before finishing, so
  // they detach) and manually counted ones (add() up front, finish() in
  // the child); the joiner waits for both kinds, and the counter is
  // reused round after round.
  st::Runtime rt(GetParam());
  constexpr int kEach = 24;
  rt.run([] {
    st::JoinCounter jc;
    for (int round = 0; round < 20; ++round) {
      std::atomic<long> sum{0};
      std::unique_ptr<st::JoinCounter[]> gates(new st::JoinCounter[kEach]);
      jc.add(kEach);
      for (int i = 0; i < kEach; ++i) {
        if (i % 3 == 0) gates[i].add();
        st::fork(jc, [&, i] {
          gates[i].join();  // a gated child suspends: its parent resumes early
          sum.fetch_add(i, std::memory_order_relaxed);
        });
        st::fork([&, i] {
          sum.fetch_add(1000 * i, std::memory_order_relaxed);
          jc.finish();
        });
        if (i % 3 == 0) gates[i].finish();
      }
      jc.join();
      const long want = (kEach - 1) * kEach / 2 * 1001L;
      ASSERT_EQ(sum.load(), want) << "round " << round;
      ASSERT_EQ(jc.outstanding(), 0) << "round " << round;
    }
  });
  EXPECT_GE(rt.stats().suspends, 20u * (kEach / 3));  // the gated children detached
}

INSTANTIATE_TEST_SUITE_P(Workers, SyncWorkerTest, ::testing::Values(1u, 2u, 4u));

// -- lock-free protocol races at P=4 ------------------------------------------

/// A short, seeded, poll-free busy wait: spreads finishers and setters
/// around the moment their counterpart arms or enlists.
void jitter(unsigned seed) {
  const unsigned spins = (seed * 2654435761u) >> 22;  // 0..1023
  for (unsigned i = 0; i < spins; ++i) asm volatile("" ::: "memory");
}

class JoinRaceTest : public ::testing::TestWithParam<st::WakePolicy> {};

TEST_P(JoinRaceTest, FinishersRaceTheArmCallbackAndCounterIsReused) {
  // One counter reused over many rounds: each round adds k tasks whose
  // finishes land before, during and after the joiner's arm callback,
  // on whichever workers stole them.
  st::Runtime rt(4);
  std::atomic<long> finished{0};
  long added = 0;
  bool drained = true;
  rt.run([&] {
    st::JoinCounter jc(0, GetParam());
    for (unsigned round = 0; round < 400; ++round) {
      const long k = 1 + round % 7;
      jc.add(k);
      added += k;
      for (long i = 0; i < k; ++i) {
        st::fork([&, seed = round * 8 + static_cast<unsigned>(i)] {
          jitter(seed);
          finished.fetch_add(1, std::memory_order_relaxed);
          jc.finish();
        });
      }
      jitter(round);
      jc.join();
      drained = drained && jc.outstanding() == 0 && finished.load() == added;
    }
  });
  EXPECT_TRUE(drained);
  EXPECT_EQ(finished.load(), added);
}

INSTANTIATE_TEST_SUITE_P(Policies, JoinRaceTest,
                         ::testing::Values(st::WakePolicy::kDeferred,
                                           st::WakePolicy::kImmediate));

TEST(FutureRace, WaitersParkEnlistRacesSetAndHandlesDropElsewhere) {
  std::atomic<int> ok{0};
  static constexpr int kRounds = 300;
  static constexpr int kWaiters = 6;
  {
    st::Runtime rt(4);
    rt.run([&] {
      for (int round = 0; round < kRounds; ++round) {
        st::Future<Tracked> f;
        st::JoinCounter jc(kWaiters + 1);
        const bool setter_first = round % 2 != 0;
        const auto set = [f, &jc, round] {
          jitter(static_cast<unsigned>(round));
          f.set(Tracked(round));
          jc.finish();
        };
        // Odd rounds: under LIFO the setter runs now, spinning, while this
        // continuation is stolen and the waiters enlist from other workers.
        if (setter_first) st::fork(set);
        for (int w = 0; w < kWaiters; ++w) {
          // Each waiter owns a copy of the handle, dropped wherever it
          // finishes -- possibly after this round's own handle.
          st::fork([f, &jc, &ok, round, w] {
            jitter(static_cast<unsigned>(round * kWaiters + w));
            if (f.get().v == round) ok.fetch_add(1, std::memory_order_relaxed);
            jc.finish();
          });
        }
        // Even rounds: every waiter that ran on this worker is parked.
        if (!setter_first) set();
        jc.join();
      }
    });
  }  // joins the workers: every closure and handle copy is gone
  EXPECT_EQ(ok.load(), kRounds * kWaiters);
  EXPECT_EQ(Tracked::live.load(), 0);
}

// -- future-cell ownership and the per-worker cell cache (DESIGN.md §5.16) ---

TEST(FutureCell, AbandonedCellIsFreedByItsProducer) {
  // The producer parks before set(); the root is stolen while a spinner
  // holds the spawning worker, drops the only handle on the thief, and
  // restarts the producer, whose set() finds kAbandoned and frees.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  unsigned spawned_on = 0, dropped_on = 0;
  bool pending_at_drop = false;
  {
    st::Runtime rt(2);
    rt.run([&] {
      st::Continuation producer;
      std::atomic<int> phase{0};
      st::JoinCounter spun(1);
      st::Future<Tracked> f = st::spawn([&producer] {
        st::suspend(&producer);
        return Tracked(7);
      });
      spawned_on = st::worker_id();
      st::fork([&phase, &spun] {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (phase.load(std::memory_order_acquire) == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          st::poll();
        }
        spun.finish();
      });
      dropped_on = st::worker_id();
      pending_at_drop = !f.ready();
      { st::Future<Tracked> last = std::move(f); }  // the last handle drops here
      phase.store(1, std::memory_order_release);
      st::restart(&producer);
      spun.join();
    });
  }
  EXPECT_TRUE(pending_at_drop);
  EXPECT_NE(spawned_on, dropped_on);
  EXPECT_EQ(Tracked::live.load(), 0);  // the value was destroyed exactly once
}

/// Tracks on which worker each value is destroyed relative to where it was
/// made: a cell freed away from its producer's worker shows as `away`.
struct Homed {
  static inline std::atomic<int> live{0};
  static inline std::atomic<int> away{0};
  unsigned home;
  long v;
  explicit Homed(long x) : home(st::worker_id()), v(x) { live.fetch_add(1); }
  Homed(Homed&& o) noexcept : home(o.home), v(o.v) { live.fetch_add(1); }
  ~Homed() {
    live.fetch_sub(1);
    if (st::on_worker() && st::worker_id() != home) away.fetch_add(1);
  }
};

long homed_fib(int n) {
  if (n < 2) return n;
  st::Future<Homed> a = st::spawn([n] { return Homed(homed_fib(n - 1)); });
  const long b = homed_fib(n - 2);
  return a.get().v + b;
}

TEST(FutureCell, CrossWorkerFreesKeepEveryCacheWithinItsCap) {
  st::Runtime rt(4);
  bool correct = true;
  rt.run([&] {
    // Repeat until some cell was freed away from its producer's worker.
    for (int round = 0; round < 200 && (round < 5 || Homed::away.load() == 0); ++round) {
      correct = correct && homed_fib(14) == 377;
      // Far more frees on one worker than the cap admits.
      std::vector<st::Future<Homed>> many;
      for (int i = 0; i < 4 * static_cast<int>(st::CellCache::kCap); ++i) {
        many.push_back(st::spawn([i] { return Homed(i); }));
      }
      long sum = 0;
      for (const auto& f : many) sum += f.get().v;
      correct = correct && sum == 255L * 256 / 2;
    }
  });
  EXPECT_TRUE(correct);
  EXPECT_GT(Homed::away.load(), 0);
  for (unsigned i = 0; i < rt.num_workers(); ++i) {
    EXPECT_LE(rt.worker(i).cell_cache().size(), st::CellCache::kCap) << "worker " << i;
  }
  EXPECT_EQ(Homed::live.load(), 0);
}

TEST(FutureCell, HandleOutlivingItsRuntimeIsFreedOffWorker) {
  std::optional<st::Future<Tracked>> kept;
  {
    st::Runtime rt(2);
    rt.run([&] {
      kept = st::spawn([] { return Tracked(5); });
      EXPECT_EQ(kept->get().v, 5);
    });
  }  // the workers, and their cell caches, are gone
  ASSERT_TRUE(kept->ready());
  EXPECT_EQ(kept->get().v, 5);
  kept.reset();  // freed on this (non-worker) thread, to the heap
  EXPECT_EQ(Tracked::live.load(), 0);
}

/// A value whose cell does not fit a cache block.
struct Big {
  std::array<long, 16> v{};
};
static_assert(!st::FutureCell<Big>::cached());
static_assert(st::FutureCell<long>::cached());
static_assert(st::FutureCell<Tracked>::cached());

TEST(FutureCell, OversizedValueBypassesTheCache) {
  st::Runtime rt(1);
  unsigned after_big = 1, after_small = 0;
  bool correct = true;
  rt.run([&] {
    for (int i = 0; i < 50; ++i) {
      st::Future<Big> f = st::spawn([i] {
        Big b;
        b.v.back() = i;
        return b;
      });
      correct = correct && f.get().v.back() == i;
    }
    after_big = rt.worker(0).cell_cache().size();  // the only worker: us
    for (int i = 0; i < 50; ++i) {
      st::Future<long> f = st::spawn([i] { return static_cast<long>(i); });
      correct = correct && f.get() == i;
    }
    after_small = rt.worker(0).cell_cache().size();
  });
  EXPECT_TRUE(correct);
  EXPECT_EQ(after_big, 0u);
  EXPECT_GT(after_small, 0u);
}

// -- annotated runs: the protocols' happens-before edges ---------------------
// Each forked result is written and later read under HB access
// annotations; the analyzer must order every such pair through the join
// counter's or the future cell's edges alone.

constexpr auto kSiteResult = static_cast<st::hb::Site>(100);

struct AnnotatedRun {
  std::size_t races = 0;
  std::size_t steals = 0;  ///< served steals: cross-worker edges exercised
};

/// An annotated run of `root`, analyzed.
template <typename Root>
AnnotatedRun annotated_run(unsigned workers, Root root) {
  stu::sched_set_annotate(true);
  stu::sched_set_record();
  {
    st::Runtime rt(workers);
    rt.run(root);
  }
  const std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  stu::sched_set_annotate(false);
  stu::sched_set_off();
  AnnotatedRun out;
  out.races = sta::hb_analyze(log).races.size();
  for (const stu::SchedDecision& d : log) {
    if (d.kind == stu::kSchedStealResult && d.a == stu::kSchedOutcomeServed) ++out.steals;
  }
  return out;
}

long annotated_jc_fib(int n, st::WakePolicy policy) {
  if (n < 2) return n;
  long a = 0;
  st::JoinCounter jc(1, policy);
  st::fork([&a, &jc, n, policy] {
    const long v = annotated_jc_fib(n - 1, policy);
    st::hb::access(&a, stu::kSchedAccessWrite, kSiteResult);
    a = v;
    jc.finish();
  });
  const long b = annotated_jc_fib(n - 2, policy);
  jc.join();
  st::hb::access(&a, stu::kSchedAccessRead, kSiteResult);
  return a + b;
}

long annotated_counted_fib(int n) {
  if (n < 2) return n;
  long a = 0;
  st::JoinCounter jc;
  st::fork(jc, [&a, n] {
    const long v = annotated_counted_fib(n - 1);
    st::hb::access(&a, stu::kSchedAccessWrite, kSiteResult);
    a = v;
  });
  const long b = annotated_counted_fib(n - 2);
  jc.join();
  st::hb::access(&a, stu::kSchedAccessRead, kSiteResult);
  return a + b;
}

long annotated_future_fib(int n) {
  if (n < 2) return n;
  // The result cell lives in this frame, like annotated_jc_fib's: a heap
  // cell would be recycled by malloc across workers through
  // synchronization the annotations cannot see.
  long a = 0;
  st::Future<int> done = st::spawn([&a, n] {
    const long v = annotated_future_fib(n - 1);
    st::hb::access(&a, stu::kSchedAccessWrite, kSiteResult);
    a = v;
    return 0;
  });
  const long b = annotated_future_fib(n - 2);
  done.get();
  st::hb::access(&a, stu::kSchedAccessRead, kSiteResult);
  return a + b;
}

TEST(SyncAnnotated, JoinCounterAndFutureEdgesLeaveNoRace) {
  const std::function<long()> kernels[] = {
      [] { return annotated_jc_fib(16, st::WakePolicy::kDeferred); },
      [] { return annotated_jc_fib(16, st::WakePolicy::kImmediate); },
      [] { return annotated_counted_fib(16); },
      [] { return annotated_future_fib(16); },
  };
  for (const auto& kernel : kernels) {
    // Repeat until some steal moved work across workers (the edges under
    // test only matter there); every run must be race-free.
    std::size_t steals = 0;
    for (int run = 0; run < 200 && steals == 0; ++run) {
      long result = 0;
      const AnnotatedRun r = annotated_run(4, [&] { result = kernel(); });
      EXPECT_EQ(r.races, 0u);
      EXPECT_EQ(result, 987);
      steals += r.steals;
    }
    EXPECT_GT(steals, 0u);
  }
}

TEST(SyncAnnotated, UnannotatedHandoffIsReportedAsRace) {
  // Control: the same harness flags a cross-worker handoff the protocols
  // do not carry.  B holds worker X until the root is stolen; the root
  // then writes on the thief and B reads behind a plain atomic flag.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  long cell = 0;
  std::atomic<int> phase{0};
  const AnnotatedRun r = annotated_run(2, [&] {
    st::JoinCounter jc(1);
    st::fork([&] {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (phase.load(std::memory_order_acquire) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        st::poll();
      }
      while (phase.load(std::memory_order_acquire) == 1) {
      }
      st::hb::access(&cell, stu::kSchedAccessRead, kSiteResult);
      jc.finish();
    });
    phase.store(1, std::memory_order_release);
    st::hb::access(&cell, stu::kSchedAccessWrite, kSiteResult);
    cell = 1;
    phase.store(2, std::memory_order_release);
    jc.join();
  });
  EXPECT_GE(r.races, 1u);
}

}  // namespace
