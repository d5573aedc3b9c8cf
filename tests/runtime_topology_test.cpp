// Hierarchical, locality-aware work stealing (runtime/topology.hpp,
// DESIGN.md section 5.14): domain-spec parsing, synthetic topologies on
// a flat host, the local-first accounting identity, steal-half batch
// transfer, the per-thief victim EMA, and the stmp-sched-v2 container
// gate.  Everything runs under a forced ST_TOPOLOGY spec so the tests
// are meaningful on single-socket CI boxes.
#include "runtime/topology.hpp"

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runtime/runtime.hpp"
#include "runtime/worker.hpp"
#include "sync/join_counter.hpp"
#include "util/domain_spec.hpp"
#include "util/sched_log.hpp"

namespace {

/// Sets an environment variable for one scope, restoring the previous
/// value on destruction (gtest runs every TEST in one process).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// ---------------------------------------------------------------------
// DomainSpec grammar (util/domain_spec.hpp).
// ---------------------------------------------------------------------

TEST(DomainSpec, GridSpecMapsBlockRoundRobin) {
  ScopedEnv e("ST_TOPOLOGY", "2x2");
  const stu::DomainSpec spec = stu::domain_spec_from_env();
  EXPECT_EQ(spec.kind, stu::DomainSpec::kGrid);
  EXPECT_TRUE(spec.explicit_domains());
  EXPECT_EQ(spec.grid_domains, 2u);
  EXPECT_EQ(spec.grid_width, 2u);
  // worker -> (w / M) % N: blocks of two, wrapping.
  EXPECT_EQ(spec.domain_of(0), 0u);
  EXPECT_EQ(spec.domain_of(1), 0u);
  EXPECT_EQ(spec.domain_of(2), 1u);
  EXPECT_EQ(spec.domain_of(3), 1u);
  EXPECT_EQ(spec.domain_of(4), 0u);  // wraps
}

TEST(DomainSpec, ListSpecUsesExplicitSizes) {
  ScopedEnv e("ST_TOPOLOGY", "1,3");
  const stu::DomainSpec spec = stu::domain_spec_from_env();
  EXPECT_EQ(spec.kind, stu::DomainSpec::kList);
  EXPECT_EQ(spec.domain_of(0), 0u);
  EXPECT_EQ(spec.domain_of(1), 1u);
  EXPECT_EQ(spec.domain_of(3), 1u);
  EXPECT_EQ(spec.domain_of(4), 0u);  // wraps past the total of 4
}

TEST(DomainSpec, MalformedSpecDegradesToFlat) {
  for (const char* bad : {"", "x", "0x4", "4x0", "1,0,", "socketwise"}) {
    ScopedEnv e("ST_TOPOLOGY", bad);
    const stu::DomainSpec spec = stu::domain_spec_from_env();
    EXPECT_FALSE(spec.explicit_domains()) << "spec '" << bad << "'";
  }
}

// ---------------------------------------------------------------------
// Topology::create under forced specs.
// ---------------------------------------------------------------------

TEST(Topology, SyntheticTwoByTwo) {
  ScopedEnv e("ST_TOPOLOGY", "2x2");
  const st::Topology t = st::Topology::create(4);
  EXPECT_TRUE(t.synthetic);
  EXPECT_EQ(t.num_domains, 2u);
  ASSERT_EQ(t.domain.size(), 4u);
  EXPECT_EQ(t.domain_of(0), 0u);
  EXPECT_EQ(t.domain_of(1), 0u);
  EXPECT_EQ(t.domain_of(2), 1u);
  EXPECT_EQ(t.domain_of(3), 1u);
  ASSERT_EQ(t.members.size(), 2u);
  EXPECT_EQ(t.members[0].size(), 2u);
  EXPECT_EQ(t.members[1].size(), 2u);
}

TEST(Topology, SyntheticSpecWrapsExtraWorkers) {
  ScopedEnv e("ST_TOPOLOGY", "2x2");
  const st::Topology t = st::Topology::create(5);
  ASSERT_EQ(t.domain.size(), 5u);
  EXPECT_EQ(t.domain_of(4), 0u);  // block round-robin wrap
}

TEST(Topology, FlatSpecIsOneDomain) {
  ScopedEnv e("ST_TOPOLOGY", "flat");
  const st::Topology t = st::Topology::create(4);
  EXPECT_EQ(t.num_domains, 1u);
  EXPECT_FALSE(t.synthetic);
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(t.domain_of(w), 0u);
}

// ---------------------------------------------------------------------
// Hierarchical stealing through a real Runtime.
// ---------------------------------------------------------------------

/// Fork-tree workload with enough breadth to provoke migration.
void fork_tree(int depth, std::atomic<long>* leaves) {
  if (depth == 0) {
    leaves->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  st::JoinCounter done(2);
  st::fork([&] {
    fork_tree(depth - 1, leaves);
    done.finish();
  });
  st::fork([&] {
    fork_tree(depth - 1, leaves);
    done.finish();
  });
  done.join();
}

TEST(HierSteal, LocalRemoteSplitAccountsEveryReceivedSteal) {
  ScopedEnv e("ST_TOPOLOGY", "2x2");
  st::RuntimeStats total;
  // A 512-leaf tree lives for a few hundred microseconds.  On a loaded
  // host the OS can leave the root's domain-mate off the CPU for that
  // whole window (measured: every local scan it makes in such a round
  // finds the root's published load at 0, so none ran while the tree
  // did), while the other domain's thieves run and steal remotely --
  // about one round in nine with steals, under four-fold
  // oversubscription.  So keep running rounds, 4 to 64, until one
  // yields a local steal.
  for (int round = 0; round < 64 && (round < 4 || total.steals_local == 0); ++round) {
    st::Runtime rt(4);
    EXPECT_EQ(rt.num_domains(), 2u);
    std::atomic<long> leaves{0};
    rt.run([&] { fork_tree(9, &leaves); });
    EXPECT_EQ(leaves.load(), 512);
    const st::RuntimeStats s = rt.stats();
    EXPECT_EQ(s.steals_local + s.steals_remote, s.steals_received);
    // Every received steal carries at least one continuation.
    EXPECT_GE(s.steal_tasks, s.steals_received);
    total.steals_received += s.steals_received;
    total.steals_local += s.steals_local;
  }
  // The workload migrates; the local-first policy must produce at least
  // one local steal across the rounds (the >= 80% locality target is
  // measured by the fig22 bench, not asserted here -- a unit test on a
  // loaded CI box should not gate on a ratio).
  if (total.steals_received > 0) {
    EXPECT_GT(total.steals_local, 0u);
  }
}

TEST(HierSteal, MetricsExportDomainsAndStealSplit) {
  ScopedEnv e("ST_TOPOLOGY", "2x2");
  ScopedEnv m("ST_METRICS", "1");
  st::Runtime rt(4);
  std::atomic<long> leaves{0};
  rt.run([&] { fork_tree(8, &leaves); });
  const std::string json = rt.metrics_json();
  EXPECT_NE(json.find("\"steal_local\""), std::string::npos);
  EXPECT_NE(json.find("\"steal_remote\""), std::string::npos);
  EXPECT_NE(json.find("\"steal_tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"domains\""), std::string::npos);
  EXPECT_NE(json.find("\"idle_wakes\""), std::string::npos);
  EXPECT_NE(json.find("\"steal_batch_size\""), std::string::npos);
  // Per-domain idle-wake counters are addressable directly too.
  EXPECT_EQ(rt.num_domains(), 2u);
  (void)rt.domain_idle_wakes(0);
  EXPECT_EQ(rt.domain_idle_wakes(99), 0u);  // out of range reads as zero
}

/// Builds a `depth`-deep fork spine on the root worker (each level's
/// parent continuation stays in its fork deque, stealable), then holds
/// it open at the leaf until another worker has run one of those
/// continuations (or a generous budget expires).  The leaf keeps
/// forking no-op children: depth publication is decimated against fork
/// traffic (Worker::maybe_publish_depth), so a worker that stopped
/// forking would advertise a stale load of 1 and the remote chooser's
/// load>=2 filter would never cross a domain.  Every parent
/// continuation bumps `far_runs` when it resumes off-root.
void spine(int depth, unsigned root, std::atomic<int>* far_runs) {
  if (depth == 0) {
    for (long i = 0; i < 1'000'000 && far_runs->load() == 0; ++i) {
      st::fork([] {});  // publish + poll point (Figure 10 serve site)
      if ((i & 255) == 0) ::sched_yield();  // let thief threads run
    }
    return;
  }
  st::fork([=] { spine(depth - 1, root, far_runs); });
  if (st::worker_id() != root) far_runs->fetch_add(1, std::memory_order_relaxed);
}

TEST(HierSteal, RemoteStealsTransferBatches) {
  // Four one-worker domains: every steal is cross-domain, so every
  // steal is a steal-half negotiation.  Zero local retries make thieves
  // probe remotely at once, and the 15-deep spine guarantees the victim
  // has far more than 3 available continuations when the first request
  // lands -- the serve must hand over a batch (steal_tasks grows faster
  // than steals_received).
  ScopedEnv e("ST_TOPOLOGY", "1,1,1,1");
  ScopedEnv r("ST_STEAL_LOCAL_RETRIES", "0");
  ScopedEnv b("ST_STEAL_BATCH", "7");
  bool saw_batch = false;
  for (int round = 0; round < 3 && !saw_batch; ++round) {
    st::Runtime rt(4);
    EXPECT_EQ(rt.num_domains(), 4u);
    std::atomic<int> far_runs{0};
    rt.run([&] { spine(15, st::worker_id(), &far_runs); });
    const st::RuntimeStats s = rt.stats();
    EXPECT_EQ(s.steals_local, 0u);  // no two workers share a domain
    EXPECT_EQ(s.steals_remote, s.steals_received);
    EXPECT_GE(s.steal_tasks, s.steals_received);
    saw_batch = s.steals_received > 0 && s.steal_tasks > s.steals_received;
  }
  EXPECT_TRUE(saw_batch) << "no steal-half batch observed in 3 rounds";
}

// ---------------------------------------------------------------------
// Adaptive victim EMA (worker.hpp): the per-thief signal that ranks
// remote domains.
// ---------------------------------------------------------------------

TEST(HierSteal, VictimEmaConvergesAndDecays) {
  // steal_ema_next(prev, hit) = 0.75*prev + (hit ? 0.25 : 0).
  EXPECT_FLOAT_EQ(st::Worker::steal_ema_next(0.0f, true), 0.25f);
  EXPECT_FLOAT_EQ(st::Worker::steal_ema_next(0.8f, false), 0.6f);
  // Repeated hits converge toward 1, repeated misses toward 0; the
  // value stays a probability.
  float ema = 0.0f;
  for (int i = 0; i < 64; ++i) {
    ema = st::Worker::steal_ema_next(ema, true);
    EXPECT_GE(ema, 0.0f);
    EXPECT_LE(ema, 1.0f);
  }
  EXPECT_GT(ema, 0.95f);
  for (int i = 0; i < 64; ++i) ema = st::Worker::steal_ema_next(ema, false);
  EXPECT_LT(ema, 0.05f);
}

// ---------------------------------------------------------------------
// stmp-sched-v2 container: version selection, round trip, and the
// mixed-version lint gate (st_replay's "small fix" satellite).
// ---------------------------------------------------------------------

stu::SchedDecision make_decision(std::uint64_t seq, std::uint16_t kind,
                                 std::uint64_t a, std::uint64_t b) {
  stu::SchedDecision d{};
  d.seq = seq;
  d.kind = kind;
  d.a = a;
  d.b = b;
  d.worker = 1;
  d.src = 1;  // kTraceSrcRuntime
  return d;
}

TEST(SchedV2, HierarchicalLogRoundTripsAsV2) {
  std::vector<stu::SchedDecision> log;
  log.push_back(make_decision(1, stu::kSchedVictim, 0, 0));
  log.push_back(make_decision(2, stu::kSchedDomain, 1, 0));  // remote probe
  log.push_back(make_decision(3, stu::kSchedStealResult, 0, 0));
  log.push_back(make_decision(4, stu::kSchedBatch, 3, 1));  // 3-task batch
  const std::string path = ::testing::TempDir() + "topology_v2.sched";
  std::string err;
  ASSERT_TRUE(stu::sched_write_file(path, log, &err)) << err;
  std::vector<stu::SchedDecision> back;
  std::uint32_t version = 0;
  ASSERT_TRUE(stu::sched_read_file(path, &back, &err, &version)) << err;
  EXPECT_EQ(version, stu::kSchedFormatV2);
  ASSERT_EQ(back.size(), log.size());
  EXPECT_EQ(back[1].kind, stu::kSchedDomain);
  EXPECT_EQ(back[3].a, 3u);
  EXPECT_TRUE(stu::sched_lint(back, &err, version)) << err;
  std::remove(path.c_str());
}

TEST(SchedV2, PreHierarchicalLogStaysV1) {
  std::vector<stu::SchedDecision> log;
  log.push_back(make_decision(1, stu::kSchedVictim, 0, 0));
  log.push_back(make_decision(2, stu::kSchedStealResult, 0, 0));
  const std::string path = ::testing::TempDir() + "topology_v1.sched";
  std::string err;
  ASSERT_TRUE(stu::sched_write_file(path, log, &err)) << err;
  std::uint32_t version = 0;
  std::vector<stu::SchedDecision> back;
  ASSERT_TRUE(stu::sched_read_file(path, &back, &err, &version)) << err;
  EXPECT_EQ(version, stu::kSchedFormatV1);
  EXPECT_TRUE(stu::sched_lint(back, &err, version)) << err;
  std::remove(path.c_str());
}

TEST(SchedV2, LintRejectsV2KindsInV1Container) {
  // A v1-stamped log must not contain hierarchical kinds; the lint
  // message names the version clash instead of a raw decode error.
  std::vector<stu::SchedDecision> log;
  log.push_back(make_decision(1, stu::kSchedVictim, 0, 0));
  log.push_back(make_decision(2, stu::kSchedDomain, 0, 1));
  std::string err;
  EXPECT_TRUE(stu::sched_lint(log, &err, 0));  // in-memory: fine
  EXPECT_TRUE(stu::sched_lint(log, &err, stu::kSchedFormatV2));
  EXPECT_FALSE(stu::sched_lint(log, &err, stu::kSchedFormatV1));
  EXPECT_NE(err.find("v2"), std::string::npos) << err;
}

TEST(SchedV2, HandCraftedMixedVersionFileIsRejected) {
  // Forge the mixed-version artifact the writer refuses to produce: a
  // stmp-sched-v1 magic over a log containing a kSchedDomain record.
  const std::string path = ::testing::TempDir() + "topology_mixed.sched";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  char magic[16] = "stmp-sched-v1";  // zero-padded to 16 bytes
  std::fwrite(magic, 1, sizeof magic, f);
  const std::uint64_t count = 1;
  std::fwrite(&count, sizeof count, 1, f);
  const stu::SchedDecision d = make_decision(1, stu::kSchedDomain, 0, 1);
  std::fwrite(&d, sizeof d, 1, f);
  std::fclose(f);

  std::vector<stu::SchedDecision> back;
  std::string err;
  std::uint32_t version = 0;
  ASSERT_TRUE(stu::sched_read_file(path, &back, &err, &version)) << err;
  EXPECT_EQ(version, stu::kSchedFormatV1);
  EXPECT_FALSE(stu::sched_lint(back, &err, version));
  EXPECT_NE(err.find("v2"), std::string::npos) << err;
  std::remove(path.c_str());
}

}  // namespace
