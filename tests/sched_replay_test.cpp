// Schedule record/replay determinism (util/sched_log.hpp + the decision
// seams in stvm/vm.cpp and runtime/runtime.cpp):
//   * STVM: a recorded schedule replayed three times reproduces the
//     result, every VmStats field and the bit-identical trace digest --
//     including across interpreter engines, since both charge budget per
//     architectural instruction.
//   * Native runtime: recorded only.  A recorded log lints and pairs every
//     posted probe with one outcome; loading it for replay drops its
//     runtime-source decisions, so a native run consumes none.
//   * Divergence: a forced decision that cannot be honored is counted
//     and reported, and execution still completes correctly (replay
//     steers, it never corrupts).
// See docs/OBSERVABILITY.md ("Schedule record and replay").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/nqueens.hpp"
#include "runtime/runtime.hpp"
#include "stvm/postproc.hpp"
#include "stvm/programs.hpp"
#include "stvm/vm.hpp"
#include "util/sched_log.hpp"
#include "util/trace_export.hpp"

namespace {

using stvm::Word;

struct StvmRun {
  Word result = 0;
  stvm::VmStats stats;
  std::uint64_t digest = 0;
};

/// One EXPECT_EQ per ST_VM_COUNTERS row, naming the counter that drifted.
void expect_stats_eq(const stvm::VmStats& a, const stvm::VmStats& b) {
#define EXPECT_COUNTER_EQ(field) EXPECT_EQ(a.field, b.field) << #field;
  ST_VM_COUNTERS(EXPECT_COUNTER_EQ)
#undef EXPECT_COUNTER_EQ
}

/// One pfib run under the current global sched mode.  The ring must be
/// large enough that no record is overwritten (a wrapped ring would
/// digest only a suffix).
StvmRun run_pfib(int n, stvm::VmConfig::Dispatch dispatch) {
  const stvm::PostprocResult prog = stvm::programs::compile(stvm::programs::pfib());
  stvm::VmConfig cfg;
  cfg.workers = 3;
  cfg.quantum = 7;  // small quantum: plenty of steal/suspend traffic
  cfg.dispatch = dispatch;
  stvm::Vm vm(prog, cfg);
  StvmRun out;
  out.result = vm.run("pmain", {Word{n}});
  out.stats = vm.stats();
  out.digest = stu::trace_schedule_digest(vm.trace_ring().snapshot());
  return out;
}

class SchedReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_mask_ = stu::trace_mask();
    saved_cap_ = stu::g_trace_ring_capacity.load();
    stu::trace_set_mask(stu::kTraceAll);
    stu::g_trace_ring_capacity.store(std::size_t{1} << 18);
    stu::sched_set_off();
    stu::sched_reset_counters();
  }
  void TearDown() override {
    stu::sched_set_off();
    stu::trace_set_mask(saved_mask_);
    stu::g_trace_ring_capacity.store(saved_cap_);
    stu::trace_sink_clear();  // Vm/Runtime dtors flushed rings here
  }
  std::uint64_t saved_mask_ = 0;
  std::size_t saved_cap_ = 0;
};

TEST_F(SchedReplayTest, StvmThreeReplaysBitIdentical) {
  stu::sched_set_record();
  const StvmRun rec = run_pfib(11, stvm::VmConfig::Dispatch::kJit);
  std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  ASSERT_FALSE(log.empty());
  std::string err;
  ASSERT_TRUE(stu::sched_lint(log, &err)) << err;
  EXPECT_EQ(rec.result, 89);  // fib(11)

  for (int i = 0; i < 3; ++i) {
    stu::sched_set_replay(log);
    const StvmRun rep = run_pfib(11, stvm::VmConfig::Dispatch::kJit);
    EXPECT_EQ(rep.result, rec.result) << "replay " << i;
    EXPECT_EQ(rep.digest, rec.digest) << "replay " << i;
    expect_stats_eq(rep.stats, rec.stats);
  }
  EXPECT_EQ(stu::sched_counters().divergence, 0u)
      << "a faithful replay must not diverge";
  EXPECT_GT(stu::sched_counters().replayed, 0u);
}

TEST_F(SchedReplayTest, StvmReplayIsEngineAgnostic) {
  stu::sched_set_record();
  const StvmRun rec = run_pfib(10, stvm::VmConfig::Dispatch::kJit);
  std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  ASSERT_FALSE(log.empty());

  // The switch engine replaying a JIT-recorded schedule must land on the
  // identical architectural history (both engines charge budget once per
  // instruction; forcing quanta by retired count is engine-agnostic).
  stu::sched_set_replay(log);
  const StvmRun rep = run_pfib(10, stvm::VmConfig::Dispatch::kSwitch);
  EXPECT_EQ(rep.result, rec.result);
  EXPECT_EQ(rep.digest, rec.digest);
  expect_stats_eq(rep.stats, rec.stats);
  EXPECT_EQ(stu::sched_counters().divergence, 0u);
}

TEST_F(SchedReplayTest, RecordingDoesNotPerturbTheSchedule) {
  const StvmRun free_run = run_pfib(10, stvm::VmConfig::Dispatch::kJit);
  stu::sched_set_record();
  const StvmRun rec = run_pfib(10, stvm::VmConfig::Dispatch::kJit);
  // Recording only observes: the STVM is deterministic for a fixed
  // config, so the recorded run must equal the unrecorded one.
  EXPECT_EQ(rec.result, free_run.result);
  EXPECT_EQ(rec.digest, free_run.digest);
  expect_stats_eq(rec.stats, free_run.stats);
}

TEST_F(SchedReplayTest, StvmDivergenceIsCountedAndHarmless) {
  stu::sched_set_record();
  const StvmRun rec = run_pfib(10, stvm::VmConfig::Dispatch::kJit);
  std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  ASSERT_FALSE(log.empty());

  // Corrupt every victim decision to an out-of-range worker: each one
  // must be rejected as unhonorable (counted) without corrupting the
  // run -- replay steers scheduling, never program semantics.
  std::size_t corrupted = 0;
  for (stu::SchedDecision& d : log) {
    if (d.kind == stu::kSchedVictim && d.a != stu::kSchedNoVictim) {
      d.a = 99;
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);
  stu::sched_set_replay(log);
  stu::sched_reset_counters();
  const StvmRun rep = run_pfib(10, stvm::VmConfig::Dispatch::kJit);
  EXPECT_EQ(rep.result, rec.result);
  EXPECT_GT(stu::sched_counters().divergence, 0u);
}

TEST_F(SchedReplayTest, NativeRecordingLintsAndPairsEveryProbe) {
  long result = 0;
  stu::sched_set_record();
  {
    st::Runtime rt(2);
    rt.run([&] { result = apps::nqueens::run_st(6); });
  }  // workers joined: no more decisions recorded
  const std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  EXPECT_EQ(result, 4);  // nqueens(6)
  ASSERT_FALSE(log.empty()) << "a 2-worker run must make scheduling decisions";
  std::string err;
  EXPECT_TRUE(stu::sched_lint(log, &err)) << err;
  // Every posted probe has exactly one outcome, recorded by the same
  // worker after it: the pairing the HB analysis and the timeline rely on.
  std::vector<int> open(2, 0);
  for (const stu::SchedDecision& d : log) {
    ASSERT_EQ(d.src, stu::kTraceSrcRuntime);
    ASSERT_LT(d.worker, 2u);
    if (d.kind == stu::kSchedVictim) {
      EXPECT_EQ(open[d.worker]++, 0) << "second probe before an outcome, seq " << d.seq;
    } else if (d.kind == stu::kSchedStealResult) {
      EXPECT_EQ(open[d.worker]--, 1) << "outcome without a probe, seq " << d.seq;
    }
  }
  EXPECT_EQ(open[0], 0);
  EXPECT_EQ(open[1], 0);
}

TEST_F(SchedReplayTest, NativeDecisionsAreDroppedOnLoad) {
  stu::sched_set_record();
  long recorded = 0;
  {
    st::Runtime rt(2);
    rt.run([&] { recorded = apps::nqueens::run_st(6); });
  }
  std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  ASSERT_FALSE(log.empty());
  // Replay forces STVM decisions only: loading this log drops every
  // runtime-source decision, says so in one named line, and the native
  // run consumes nothing.
  ::testing::internal::CaptureStderr();
  stu::sched_set_replay(log);
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[sched-replay] dropped"), std::string::npos) << out;
  EXPECT_NE(out.find("runtime-source decisions"), std::string::npos) << out;
  stu::sched_reset_counters();
  long result = 0;
  {
    st::Runtime rt(2);
    rt.run([&] { result = apps::nqueens::run_st(6); });
  }
  EXPECT_EQ(result, recorded);
  EXPECT_EQ(stu::sched_counters().replayed, 0u);
  EXPECT_EQ(stu::sched_counters().divergence, 0u);
}

TEST_F(SchedReplayTest, FileRoundTripAndLint) {
  stu::sched_set_record();
  (void)run_pfib(8, stvm::VmConfig::Dispatch::kJit);
  const std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  ASSERT_FALSE(log.empty());

  const std::string path = ::testing::TempDir() + "sched_replay_test.sched";
  std::string err;
  ASSERT_TRUE(stu::sched_write_file(path, log, &err)) << err;
  std::vector<stu::SchedDecision> back;
  ASSERT_TRUE(stu::sched_read_file(path, &back, &err)) << err;
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(back[i].seq, log[i].seq);
    EXPECT_EQ(back[i].a, log[i].a);
    EXPECT_EQ(back[i].b, log[i].b);
    EXPECT_EQ(back[i].kind, log[i].kind);
    EXPECT_EQ(back[i].worker, log[i].worker);
    EXPECT_EQ(back[i].src, log[i].src);
  }

  // Structural lint: the invariants the replayer depends on.
  std::vector<stu::SchedDecision> bad = log;
  bad[1].seq = bad[0].seq;  // non-increasing clock
  EXPECT_FALSE(stu::sched_lint(bad, &err));
  bad = log;
  bad[0].kind = stu::kSchedKindCount;  // out-of-range kind
  EXPECT_FALSE(stu::sched_lint(bad, &err));
  for (stu::SchedDecision& d : bad) d.kind = 0xffff;  // garbage everywhere
  EXPECT_FALSE(stu::sched_lint(bad, &err));

  // Logs are v1 only: a file with the retired stmp-sched-v2 magic (the
  // hierarchical-steal container) is refused by name, not replayed
  // misaligned.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const char v2[16] = {'s', 't', 'm', 'p', '-', 's', 'c', 'h',
                         'e', 'd', '-', 'v', '2', '\0', '\0', '\0'};
    ASSERT_EQ(std::fwrite(v2, 1, sizeof(v2), f), sizeof(v2));
    std::fclose(f);
  }
  err.clear();
  EXPECT_FALSE(stu::sched_read_file(path, &back, &err));
  EXPECT_NE(err.find("stmp-sched-v2"), std::string::npos) << err;
}

}  // namespace
