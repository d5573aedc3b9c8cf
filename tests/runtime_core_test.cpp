// End-to-end tests of the native runtime: fork fast path, LIFO order,
// suspend/resume/restart, migration via the polling steal protocol, and
// randomized fork-tree stress across worker counts.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "sync/join_counter.hpp"
#include "util/rng.hpp"

namespace {

TEST(RuntimeCore, RunExecutesRootOnWorker) {
  st::Runtime rt(1);
  bool ran = false;
  bool on_worker = false;
  rt.run([&] {
    ran = true;
    on_worker = st::on_worker();
  });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(on_worker);
  EXPECT_FALSE(st::on_worker());  // the calling thread is not a worker
}

TEST(RuntimeCore, RunCanBeCalledRepeatedly) {
  st::Runtime rt(2);
  int total = 0;
  for (int i = 0; i < 10; ++i) rt.run([&] { ++total; });
  EXPECT_EQ(total, 10);
}

TEST(RuntimeCore, ForkRunsChildFirstLifo) {
  // The defining property of an ASYNC_CALL under LIFO scheduling: the
  // child runs to completion before the parent resumes (single worker,
  // no suspension).
  st::Runtime rt(1);
  std::vector<int> order;
  rt.run([&] {
    order.push_back(0);
    st::fork([&] { order.push_back(1); });
    order.push_back(2);
    st::fork([&] { order.push_back(3); });
    order.push_back(4);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RuntimeCore, NestedForksUnwindLikeCalls) {
  st::Runtime rt(1);
  std::vector<int> order;
  rt.run([&] {
    st::fork([&] {
      order.push_back(1);
      st::fork([&] { order.push_back(2); });
      order.push_back(3);
    });
    order.push_back(4);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(RuntimeCore, ForkMovesClosureIntoChild) {
  // A stolen parent may leave the fork site before the child completes;
  // the child must therefore own its callable.  Verify the closure is
  // moved, not referenced.
  st::Runtime rt(1);
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  rt.run([&] {
    st::fork([p = std::move(payload), &seen] { seen = *p; });
  });
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(payload, nullptr);
}

TEST(RuntimeCore, SuspendResumeRoundTrip) {
  st::Runtime rt(1);
  std::vector<int> order;
  rt.run([&] {
    st::Continuation blocked;
    st::JoinCounter done(1);
    st::fork([&] {
      order.push_back(1);
      st::suspend(&blocked);  // detaches; parent continues
      order.push_back(4);
      done.finish();
    });
    order.push_back(2);
    st::resume(&blocked);  // deferred: enters readyq, runs at scheduler
    order.push_back(3);
    done.join();
    order.push_back(5);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(RuntimeCore, RestartRunsImmediatelyWithCallerAsParent) {
  st::Runtime rt(1);
  std::vector<int> order;
  rt.run([&] {
    st::Continuation blocked;
    st::JoinCounter done(1);
    st::fork([&] {
      order.push_back(1);
      st::suspend(&blocked);
      order.push_back(3);
      done.finish();
    });
    order.push_back(2);
    st::restart(&blocked);  // immediate: we become the parent
    order.push_back(4);     // resumes after the restarted thread finishes
    done.join();
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

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

class WorkerSweepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorkerSweepTest, FibCorrectAcrossWorkerCounts) {
  st::Runtime rt(GetParam());
  long result = 0;
  rt.run([&] { result = pfib(18); });
  EXPECT_EQ(result, 2584);
}

TEST_P(WorkerSweepTest, ManyIndependentTasks) {
  st::Runtime rt(GetParam());
  constexpr int kTasks = 500;
  std::atomic<long> sum{0};
  rt.run([&] {
    st::JoinCounter jc(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      st::fork([&sum, i, &jc] {
        sum.fetch_add(i, std::memory_order_relaxed);
        jc.finish();
      });
    }
    jc.join();
  });
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

// Random fork trees with per-node tokens: every node must execute exactly
// once regardless of worker count and steal interleavings.
long tree_walk(stu::Xoshiro256& parent_rng, std::uint64_t seed, int depth,
               std::atomic<long>& nodes) {
  (void)parent_rng;
  stu::Xoshiro256 rng(seed);
  nodes.fetch_add(1, std::memory_order_relaxed);
  if (depth == 0) return 1;
  const int kids = 1 + static_cast<int>(rng.below(3));
  std::vector<long> sub(static_cast<std::size_t>(kids), 0);
  st::JoinCounter jc(kids);
  for (int k = 0; k < kids; ++k) {
    st::fork([&, k] {
      stu::Xoshiro256 r(seed);
      sub[static_cast<std::size_t>(k)] =
          tree_walk(r, seed * 131 + static_cast<std::uint64_t>(k) + 1, depth - 1, nodes);
      jc.finish();
    });
  }
  jc.join();
  long total = 1;
  for (long s : sub) total += s;
  return total;
}

TEST_P(WorkerSweepTest, RandomForkTreeStress) {
  st::Runtime rt(GetParam());
  std::atomic<long> nodes{0};
  long total = 0;
  rt.run([&] {
    stu::Xoshiro256 rng(99);
    total = tree_walk(rng, 99, 7, nodes);
  });
  EXPECT_EQ(total, nodes.load());
  EXPECT_GT(nodes.load(), 8);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweepTest, ::testing::Values(1u, 2u, 3u, 4u));

TEST(RuntimeCore, StatsCountForksAndCompletions) {
  st::Runtime rt(1);
  rt.run([&] {
    st::JoinCounter jc(3);
    for (int i = 0; i < 3; ++i) st::fork([&] { jc.finish(); });
    jc.join();
  });
  const auto s = rt.stats();
  EXPECT_EQ(s.forks, 3u);
  EXPECT_GE(s.tasks_completed, 4u);  // 3 children + the root
}

TEST(RuntimeCore, MigrationHappensUnderMultipleWorkers) {
  // With several workers and a deep LIFO chain punctured by polls, at
  // least one steal should be attempted.  On a single-core host the
  // thief threads only get cycles when the OS preempts the victim, and
  // one pfib(22) now finishes in ~2 ms (the fork path dropped under
  // ~35 ns) -- often inside a single scheduling quantum.  Repeating a
  // moderate workload until an attempt lands keeps the test fast
  // natively and bounded under TSan's ~10x slowdown, where a single
  // big-enough run takes minutes.
  st::Runtime rt(4);
  for (int round = 0; round < 400 && rt.stats().steal_attempts == 0; ++round) {
    long result = 0;
    rt.run([&] { result = pfib(22); });
    ASSERT_EQ(result, 17711);
  }
  EXPECT_GT(rt.stats().steal_attempts, 0u);
}

TEST(RuntimeCore, FlatForkLoopLeavesAreStolen) {
  // A flat fork loop whose children neither fork nor poll: the only poll
  // a victim makes is the one at each child's entry, and the loop's
  // continuation must be stealable there.  (A poll made before the parent
  // is pushed finds the deque empty and rejects every thief.)  Rounds
  // repeat until a steal lands so a briefly descheduled thief cannot
  // fail the test; without the entry poll no round ever steals.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  st::Runtime rt(std::min(4u, hw));
  for (int round = 0; round < 20 && rt.stats().steals_received == 0; ++round) {
    std::atomic<int> done{0};
    rt.run([&] {
      st::JoinCounter jc;
      for (int i = 0; i < 8; ++i) {
        jc.add();
        st::fork([&] {
          const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(3);
          while (std::chrono::steady_clock::now() < until) {
          }
          done.fetch_add(1, std::memory_order_relaxed);
          jc.finish();
        });
      }
      jc.join();
    });
    ASSERT_EQ(done.load(), 8);
  }
  EXPECT_GT(rt.stats().steals_received, 0u);
}

// -- the rare exits of a forked child --------------------------------------
// A child normally returns through st_ctx_fork's tail straight into its
// own parent.  These cover the other targets the tail must reach.

TEST(RuntimeCore, ChildExitsToSchedulerWhenParentStolenAtEntryPoll) {
  // Children that neither poll nor suspend: the parent can move only at
  // a child's entry poll, and a child whose parent moved finds its fork
  // deque empty and exits to its worker's scheduler context.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  st::Runtime rt(std::min(4u, hw));
  constexpr int kKids = 8;
  int moved = 0;
  for (int round = 0; round < 50 && moved == 0; ++round) {
    std::atomic<unsigned> child_worker[kKids];
    unsigned parent_worker[kKids];
    std::atomic<int> done{0};
    rt.run([&] {
      st::JoinCounter jc(kKids);
      for (int i = 0; i < kKids; ++i) {
        st::fork([&, i] {
          child_worker[i].store(st::worker_id(), std::memory_order_relaxed);
          const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(500);
          while (std::chrono::steady_clock::now() < until) {
          }
          done.fetch_add(1, std::memory_order_relaxed);
          jc.finish();
        });
        parent_worker[i] = st::worker_id();
      }
      jc.join();
    });
    ASSERT_EQ(done.load(), kKids);
    for (int i = 0; i < kKids; ++i) {
      if (child_worker[i].load() != parent_worker[i]) ++moved;
    }
  }
  EXPECT_GT(moved, 0) << "no parent was ever stolen at a child's entry poll";
  // The workers that took the scheduler exit keep running work.
  long sum = 0;
  rt.run([&] { sum = pfib(15); });
  EXPECT_EQ(sum, 610);
}

TEST(RuntimeCore, ChildResumedElsewhereCompletesThroughForkTail) {
  // Child A suspends on worker X.  Its sibling B holds X (polling) until
  // the root continuation is stolen; the thief resumes A onto its own
  // readyq and joins, so A runs -- and finishes -- on the thief's OS
  // thread while X is still busy in B.  A's return then goes through the
  // st_ctx_fork tail it entered by on X.  When the root is instead
  // stolen at A's entry poll, it ends up back on A's worker and A
  // finishes where it began; rounds repeat until the migrating schedule
  // has been seen a few times.  (Worker ids, not thread ids:
  // pthread_self is a const function whose result the compiler may reuse
  // across the suspension.)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  st::Runtime rt(2);
  int migrated = 0;
  for (int round = 0; round < 50 && migrated < 4; ++round) {
    unsigned a_start = 0, a_end = 0;
    std::atomic<bool> root_moved{false}, a_done{false};
    rt.run([&] {
      st::JoinCounter jc(2);
      st::Continuation c;
      st::fork([&] {  // A
        a_start = st::worker_id();
        st::suspend(&c);
        a_end = st::worker_id();
        a_done.store(true, std::memory_order_release);
        jc.finish();
      });
      st::fork([&] {  // B
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!root_moved.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          st::poll();
        }
        if (root_moved.load(std::memory_order_acquire)) {
          while (!a_done.load(std::memory_order_acquire)) std::this_thread::yield();
        }
        jc.finish();
      });
      root_moved.store(true, std::memory_order_release);
      st::resume(&c);
      jc.join();
    });
    EXPECT_TRUE(a_done.load());
    if (a_start != a_end) ++migrated;
  }
  EXPECT_EQ(migrated, 4);
}

TEST(RuntimeCore, RootExitsFromAnotherWorkerThroughBootTail) {
  // The root moves at its child's poll and returns on the thief: its exit
  // is st_ctx_boot's tail on an OS thread other than the one it booted on.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  int migrated = 0;
  {
    st::Runtime rt(2);
    for (int round = 0; round < 8; ++round) {
      auto root_moved = std::make_shared<std::atomic<bool>>(false);
      auto child_done = std::make_shared<std::atomic<bool>>(false);
      unsigned start = 0, end = 0;
      rt.run([&] {
        start = st::worker_id();
        st::fork([root_moved, child_done] {
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!root_moved->load(std::memory_order_acquire) &&
                 std::chrono::steady_clock::now() < deadline) {
            st::poll();
          }
          child_done->store(true, std::memory_order_release);
        });
        root_moved->store(true, std::memory_order_release);
        end = st::worker_id();
      });
      if (start != end) ++migrated;
      while (!child_done->load(std::memory_order_acquire)) std::this_thread::yield();
    }
    // Plain roots, before and after the migrated ones, still exit cleanly.
    for (int i = 0; i < 100; ++i) rt.run([] {});
  }
  EXPECT_EQ(migrated, 8);
}

TEST(RuntimeCore, ExceptionsInsideTaskAreFineIfCaught) {
  st::Runtime rt(1);
  bool caught = false;
  rt.run([&] {
    st::fork([&] {
      try {
        throw std::runtime_error("contained");
      } catch (const std::exception&) {
        caught = true;
      }
    });
  });
  EXPECT_TRUE(caught);
}

TEST(RuntimeCore, DomainShimSumsToTheIdleWakeCounter) {
  // The scheduler is flat; num_domains()/domain_idle_wakes() remain only
  // for perfbench/runtime_probe.hpp, which sums wakes over the domains.
  // That sum must be the runtime's one idle-wake counter.  Workers may
  // still wake while it is read, so it is bracketed by two reads.
  st::Runtime rt(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> leaves{0};
    rt.run([&] {
      st::JoinCounter jc;
      for (int i = 0; i < 64; ++i) {
        jc.add();
        st::fork([&] {
          leaves.fetch_add(1, std::memory_order_relaxed);
          jc.finish();
        });
      }
      jc.join();
    });
    ASSERT_EQ(leaves.load(), 64);
    std::this_thread::sleep_for(std::chrono::microseconds(200));  // let workers park
  }
  ASSERT_EQ(rt.num_domains(), 1u);
  const std::uint64_t before = rt.idle_wakes();
  std::uint64_t sum = 0;
  for (unsigned d = 0; d < rt.num_domains(); ++d) sum += rt.domain_idle_wakes(d);
  const std::uint64_t after = rt.idle_wakes();
  EXPECT_LE(before, sum);
  EXPECT_LE(sum, after);
}

TEST(RuntimeCore, PollOffWorkerIsHarmless) {
  st::poll();  // no worker: must be a no-op, not a crash
  SUCCEED();
}

}  // namespace
