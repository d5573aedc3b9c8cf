// The baseline template JIT (stvm/jit.hpp): engine selection and the
// fallback ladder, per-opcode retirement histogram equality across both
// engines after canonicalization, observability strings, the
// verify-once memo a module carries when shared across engines, and the
// native rounds that switch busy workers inside native code.
//
// Architectural equivalence of the JIT (results, print streams, VmStats,
// schedule digests) is fuzzed in stvm_stc_fuzz_test.cpp; this file
// covers the engine plumbing around it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "stvm/asm.hpp"
#include "stvm/postproc.hpp"
#include "stvm/predecode.hpp"
#include "stvm/programs.hpp"
#include "stvm/stc.hpp"
#include "stvm/verify.hpp"
#include "stvm/vm.hpp"
#include "util/sched_log.hpp"
#include "util/trace_export.hpp"

namespace {

using namespace stvm;

VmConfig counting(VmConfig::Dispatch d, unsigned workers = 1, int quantum = 64) {
  VmConfig cfg;
  cfg.dispatch = d;
  cfg.workers = workers;
  cfg.quantum = quantum;
  cfg.count_opcodes = true;
  return cfg;
}

/// Runs `entry(args)` under one engine and returns the canonicalized
/// retirement histogram plus the raw stats for the invariant check.
struct CountedRun {
  Word result = 0;
  std::uint64_t instructions = 0;
  std::array<std::uint64_t, kNumRunOps> canonical{};
};

CountedRun counted_run(const PostprocResult& prog, VmConfig cfg,
                       const std::string& entry, const std::vector<Word>& args) {
  Vm vm(prog, cfg);
  CountedRun r;
  r.result = vm.run(entry, args);
  r.instructions = vm.stats().instructions;
  const auto& raw = vm.opcode_retired();
  // The documented histogram invariant: every handler retires one
  // architectural instruction, so the counts cover every retired one.
  std::uint64_t total = 0;
  for (const std::uint64_t n : raw) total += n;
  EXPECT_EQ(total, r.instructions);
  r.canonical = canonicalize_opcode_histogram(raw);
  return r;
}

void expect_histograms_equal(const CountedRun& a, const CountedRun& b,
                             const char* who) {
  EXPECT_EQ(a.result, b.result) << who;
  EXPECT_EQ(a.instructions, b.instructions) << who;
  for (int h = 0; h < kNumRunOps; ++h)
    EXPECT_EQ(a.canonical[static_cast<std::size_t>(h)],
              b.canonical[static_cast<std::size_t>(h)])
        << who << ": " << run_op_name(static_cast<RunOp>(h));
}

TEST(StvmJit, CanonicalHistogramsAgreeAcrossEngines) {
  // Sequential fib: plenty of calls, branches, epilogue splices.  The
  // switch engine counts plain Op mirrors, the JIT counts per-block --
  // after canonicalization both must be bit-equal.
  const auto prog = programs::compile(programs::fib(), /*with_stdlib=*/false);
  const auto sw = counted_run(prog, counting(VmConfig::Dispatch::kSwitch), "main", {17});
  const auto jt = counted_run(prog, counting(VmConfig::Dispatch::kJit), "main", {17});
  expect_histograms_equal(sw, jt, "switch vs jit");
  // Canonical form only uses the architectural Op mirror range.
  for (int h = static_cast<int>(RunOp::kCallBuiltin); h < kNumRunOps; ++h)
    EXPECT_EQ(jt.canonical[static_cast<std::size_t>(h)], 0u)
        << run_op_name(static_cast<RunOp>(h));
}

TEST(StvmJit, CanonicalHistogramsAgreeUnderParallelInterleaving) {
  // Multi-worker + a small quantum: suspension, stealing and builtin
  // traffic, with quantum boundaries forcing host handoffs in the JIT.
  const auto prog = programs::compile(programs::pfib(), /*with_stdlib=*/true);
  const auto sw =
      counted_run(prog, counting(VmConfig::Dispatch::kSwitch, 3, 7), "pmain", {10});
  const auto jt =
      counted_run(prog, counting(VmConfig::Dispatch::kJit, 3, 7), "pmain", {10});
  expect_histograms_equal(sw, jt, "switch vs jit");
}

TEST(StvmJit, ValidateModeFallsBackToInterpreter) {
  // The per-instruction safety hook has no native seam; requesting both
  // must silently pick the switch engine (fallback ladder).
  const auto prog = programs::compile(programs::fib(), /*with_stdlib=*/false);
  VmConfig cfg;
  cfg.dispatch = VmConfig::Dispatch::kJit;
  cfg.validate = true;
  Vm vm(prog, cfg);
  EXPECT_FALSE(vm.dispatch_jit());
  EXPECT_TRUE(vm.predecoded().rcode.empty());
  EXPECT_EQ(vm.run("main", {12}), 144);
  EXPECT_NE(vm.metrics_json().find("\"dispatch\":\"switch\""), std::string::npos);
}

TEST(StvmJit, MetricsJsonNamesTheActiveEngine) {
  const auto prog = programs::compile(programs::fib(), /*with_stdlib=*/false);
  Vm vm(prog, counting(VmConfig::Dispatch::kJit));
  vm.run("main", {10});
  const std::string json = vm.metrics_json();
  const char* expect = Vm::jit_supported() ? "\"dispatch\":\"jit\"" : "\"dispatch\":\"";
  EXPECT_NE(json.find(expect), std::string::npos) << json;
}

TEST(StvmJit, SharedModuleIsVerifiedOnce) {
  // The differential suites hand ONE PostprocResult to several Vms;
  // under the ST_VERIFY load gate the verifier must run once per
  // module, not once per engine -- the verdict memo lives on the module.
  // Built without programs::compile, which itself verifies under
  // ST_VERIFY=1 and would set the memo before the first check.
  const auto prog = postprocess(assemble(programs::fib()));
  EXPECT_EQ(prog.verify_verdict, 0);
  verify_or_throw(prog);
  EXPECT_EQ(prog.verify_verdict, 1);
  // Second call is the memo hit; still fine, verdict unchanged.
  verify_or_throw(prog);
  EXPECT_EQ(prog.verify_verdict, 1);
}

TEST(StvmJit, EnvSelectionRejectsUnknownEngineNames) {
  const auto prog = programs::compile(programs::fib(), /*with_stdlib=*/false);
  // Preserve whatever ST_STVM_DISPATCH the caller pinned.  "threaded" is
  // a retired engine name, rejected like any unknown one.
  const char* prev = ::getenv("ST_STVM_DISPATCH");
  const std::string saved = prev ? prev : "";
  VmConfig cfg;
  cfg.dispatch = VmConfig::Dispatch::kEnv;
  for (const char* name : {"turbo", "threaded"}) {
    ::setenv("ST_STVM_DISPATCH", name, 1);
    EXPECT_THROW(Vm(prog, cfg), VmError) << name;
  }
  if (prev)
    ::setenv("ST_STVM_DISPATCH", saved.c_str(), 1);
  else
    ::unsetenv("ST_STVM_DISPATCH");
}

}  // namespace

// ---- native rounds ---------------------------------------------------

namespace {

PostprocResult compile_stc(const std::string& src) {
  return postprocess(assemble(stc::compile_to_asm(src) + "\n" + programs::stdlib()));
}

/// Everything a run exposes that the engines must agree on.
struct FullRun {
  Word result = 0;
  bool threw = false;
  std::vector<Word> printed;
  VmStats stats;
  std::array<std::uint64_t, kNumRunOps> canonical{};
  Vm::JitCounters jit;
};

FullRun full_run(const PostprocResult& prog, VmConfig cfg, const std::string& entry,
                 const std::vector<Word>& args) {
  cfg.count_opcodes = true;
  Vm vm(prog, cfg);
  FullRun r;
  try {
    r.result = vm.run(entry, args);
  } catch (const VmError&) {
    r.threw = true;
  }
  r.printed = vm.output();
  r.stats = vm.stats();
  r.canonical = canonicalize_opcode_histogram(vm.opcode_retired());
  r.jit = vm.jit_counters();
  return r;
}

void expect_same_run(const FullRun& a, const FullRun& b) {
  EXPECT_EQ(a.threw, b.threw);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.printed, b.printed);
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.stats.suspends, b.stats.suspends);
  EXPECT_EQ(a.stats.restarts, b.stats.restarts);
  EXPECT_EQ(a.stats.resumes, b.stats.resumes);
  EXPECT_EQ(a.stats.steals_served, b.stats.steals_served);
  EXPECT_EQ(a.stats.steals_rejected, b.stats.steals_rejected);
  EXPECT_EQ(a.stats.frames_unwound, b.stats.frames_unwound);
  EXPECT_EQ(a.stats.shrink_reclaimed, b.stats.shrink_reclaimed);
  EXPECT_EQ(a.stats.retired_marks_seen, b.stats.retired_marks_seen);
  EXPECT_EQ(a.stats.trampolines_taken, b.stats.trampolines_taken);
  for (int h = 0; h < kNumRunOps; ++h)
    EXPECT_EQ(a.canonical[static_cast<std::size_t>(h)],
              b.canonical[static_cast<std::size_t>(h)])
        << run_op_name(static_cast<RunOp>(h));
}

/// Runs under the switch engine and the JIT and compares everything;
/// returns the JIT run for path-specific assertions.
FullRun jit_matches_switch(const PostprocResult& prog, VmConfig cfg,
                           const std::string& entry, const std::vector<Word>& args) {
  cfg.dispatch = VmConfig::Dispatch::kSwitch;
  const FullRun sw = full_run(prog, cfg, entry, args);
  cfg.dispatch = VmConfig::Dispatch::kJit;
  const FullRun jt = full_run(prog, cfg, entry, args);
  expect_same_run(sw, jt);
  EXPECT_EQ(sw.jit.native_rounds, 0u);
  return jt;
}

VmConfig workers_quantum(unsigned workers, int quantum) {
  VmConfig cfg;
  cfg.workers = workers;
  cfg.quantum = quantum;
  return cfg;
}

TEST(StvmJitRounds, MultiWorkerRunsMatchTheSwitchEngine) {
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto pfib = programs::compile(programs::pfib(), /*with_stdlib=*/true);
  const auto psum = programs::compile(programs::psum(), /*with_stdlib=*/true);
  for (unsigned workers = 2; workers <= 4; ++workers) {
    for (int quantum : {1, 7, 64}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " quantum=" + std::to_string(quantum));
      const auto f = jit_matches_switch(pfib, workers_quantum(workers, quantum), "pmain", {13});
      EXPECT_EQ(f.result, 233);
      EXPECT_GT(f.jit.native_rounds, 0u) << "pfib never ran a native round";
      const auto s = jit_matches_switch(psum, workers_quantum(workers, quantum), "psum_main", {3000});
      EXPECT_EQ(s.result, 3000 * 3001 / 2);
      EXPECT_GT(s.jit.native_rounds, 0u) << "psum never ran a native round";
    }
  }
}

TEST(StvmJitRounds, ColdBuiltinsMidRoundKeepThePrintOrder) {
  // Every leaf prints: __st_print is a cold builtin landing at arbitrary
  // points of a quantum, so native rounds keep leaving to the host and
  // resuming the same worker with the rest of its budget.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = compile_stc(R"(
    func task(lo, hi, result, jc) {
      mem[result] = sum(lo, hi);
      jc_finish(jc);
    }
    func sum(lo, hi) {
      if (hi - lo < 3) {
        var s = 0;
        while (lo < hi) { s = s + lo; lo = lo + 1; }
        print(s * 10 + worker_id());
        return s;
      }
      poll();
      var mid = lo + (hi - lo) / 2;
      var jc[2];
      var a;
      jc_init(&jc, 1);
      async task(lo, mid, &a, &jc);
      var b = sum(mid, hi);
      jc_join(&jc);
      return a + b;
    }
    func main(n) { exit(sum(0, n)); }
  )");
  for (int quantum : {7, 64}) {
    SCOPED_TRACE("quantum=" + std::to_string(quantum));
    const auto r = jit_matches_switch(prog, workers_quantum(4, quantum), "main", {400});
    EXPECT_EQ(r.result, 400 * 399 / 2);
    EXPECT_GT(r.printed.size(), 100u);
    EXPECT_GT(r.jit.native_rounds, 0u);
    // A print mid-quantum leaves native code; only one at a quantum's
    // first instruction is single-stepped without a visit.
    EXPECT_GT(r.jit.host_visits, r.printed.size() / 2);
  }
}

TEST(StvmJitRounds, HaltMidRoundSkipsTheRestOfTheRound) {
  // Worker 0 runs the child and exits mid-quantum while worker 1, which
  // stole main's continuation, is still spinning: the round ends at the
  // exit, so worker 1 must not run the rest of its round.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = compile_stc(R"(
    func child(n) {
      var i = 0;
      while (i < n) { poll(); i = i + 1; }
      exit(n);
    }
    func main(n) {
      async child(n);
      var k = 0;
      while (k >= 0) { k = k + 1; }
    }
  )");
  for (int quantum : {7, 64}) {
    SCOPED_TRACE("quantum=" + std::to_string(quantum));
    const auto r = jit_matches_switch(prog, workers_quantum(2, quantum), "main", {300});
    EXPECT_EQ(r.result, 300);
    EXPECT_GT(r.stats.steals_served, 0u) << "main's continuation was never stolen";
    EXPECT_GT(r.jit.native_rounds, 0u);
  }
}

TEST(StvmJitRounds, WorkerGoingIdleMidRoundDropsToPerQuantumRounds) {
  // The child finishes first and its worker returns to the scheduler
  // mid-round; the rounds after that have an idle worker (probing for
  // steals that main's polls reject) and must run on the per-quantum
  // path, or the probe sequence and counters would drift from the
  // switch engine's.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = compile_stc(R"(
    func child(n) {
      var i = 0;
      while (i < n) { poll(); i = i + 1; }
    }
    func main(n) {
      async child(n);
      var k = 0;
      while (k < 20 * n) { poll(); k = k + 1; }
      exit(k);
    }
  )");
  for (int quantum : {7, 64}) {
    SCOPED_TRACE("quantum=" + std::to_string(quantum));
    const auto r = jit_matches_switch(prog, workers_quantum(2, quantum), "main", {100});
    EXPECT_EQ(r.result, 2000);
    EXPECT_GT(r.stats.steals_served, 0u) << "main's continuation was never stolen";
    EXPECT_GT(r.stats.steals_rejected, 0u) << "the idle worker never probed";
    EXPECT_GT(r.jit.native_rounds, 0u);
  }
}

TEST(StvmJitRounds, SequentialWorkWithIdleWorkersNeverRunsNativeRounds) {
  // fib never forks: workers 1..3 stay idle, so no round qualifies.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = programs::compile(programs::fib(), /*with_stdlib=*/false);
  const auto r = jit_matches_switch(prog, workers_quantum(4, 64), "main", {15});
  EXPECT_EQ(r.result, 610);
  EXPECT_EQ(r.jit.native_rounds, 0u);
  EXPECT_GT(r.jit.host_visits, 0u);
}

TEST(StvmJitRounds, MaxStepsFailsAtTheSameInstructionCount) {
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = programs::compile(programs::pfib(), /*with_stdlib=*/true);
  for (int quantum : {7, 64}) {
    SCOPED_TRACE("quantum=" + std::to_string(quantum));
    VmConfig cfg = workers_quantum(4, quantum);
    cfg.max_steps = 20'000;
    const auto r = jit_matches_switch(prog, cfg, "pmain", {18});
    EXPECT_TRUE(r.threw);
    EXPECT_GT(r.stats.instructions, cfg.max_steps);
    EXPECT_GT(r.jit.native_rounds, 0u);
  }
}

TEST(StvmJitRounds, FourWorkerJitScheduleReplaysUnderTheSwitchEngine) {
  // A recorder observes quantum boundaries, so this run takes the
  // per-quantum path; its log must still replay bit-identically under
  // the switch engine (same digest, same counters).
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const std::uint64_t saved_mask = stu::trace_mask();
  const std::size_t saved_cap = stu::g_trace_ring_capacity.load();
  stu::trace_set_mask(stu::kTraceAll);
  stu::g_trace_ring_capacity.store(std::size_t{1} << 18);
  const auto prog = programs::compile(programs::pfib(), /*with_stdlib=*/true);
  auto run = [&](VmConfig::Dispatch d, std::uint64_t* digest) {
    VmConfig cfg = workers_quantum(4, 7);
    cfg.dispatch = d;
    Vm vm(prog, cfg);
    const Word r = vm.run("pmain", {11});
    *digest = stu::trace_schedule_digest(vm.trace_ring().snapshot());
    EXPECT_EQ(vm.jit_counters().native_rounds, 0u);
    return std::make_pair(r, vm.stats().instructions);
  };
  stu::sched_set_off();
  stu::sched_reset_counters();
  stu::sched_set_record();
  std::uint64_t rec_digest = 0, rep_digest = 0;
  const auto rec = run(VmConfig::Dispatch::kJit, &rec_digest);
  const std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  stu::sched_set_replay(log);
  const auto rep = run(VmConfig::Dispatch::kSwitch, &rep_digest);
  stu::sched_set_off();
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(rec.first, 89);
  EXPECT_EQ(rep, rec);
  EXPECT_EQ(rep_digest, rec_digest);
  EXPECT_EQ(stu::sched_counters().divergence, 0u);
  stu::trace_set_mask(saved_mask);
  stu::g_trace_ring_capacity.store(saved_cap);
  stu::trace_sink_clear();
}

TEST(StvmJitRounds, BatchedRoundsMatchPerRoundExecution) {
  // Every worker busy and nothing observing quanta: the quantum stub
  // wraps from the last worker to the first for a batch of rounds.  Each
  // program ends batches a different way -- fan: suspends at joins,
  // steals, and an exit while the other leaves still spin; drain: the
  // child's worker returning to the scheduler while main still spins.  The
  // switch engine steps every round on the host, so equal counters mean
  // a batch ends exactly where a round does.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto fan = compile_stc(R"(
    func branch(d, n, jc) {
      tree(d, n, 0);
      jc_finish(jc);
    }
    func tree(d, n, stop) {
      if (d == 0) {
        var i = 0;
        while (i < n) { poll(); i = i + 1; }
        if (stop > 0) { exit(i); }
        return 0;
      }
      var jc[2];
      jc_init(&jc, 1);
      async branch(d - 1, 3 * n, &jc);
      tree(d - 1, n, stop);
      jc_join(&jc);
      return 0;
    }
    func main(n) { tree(2, n, 1); exit(0); }
  )");
  const auto drain = compile_stc(R"(
    func child(n) {
      var i = 0;
      while (i < n) { poll(); i = i + 1; }
    }
    func main(n) {
      async child(n);
      var k = 0;
      while (k < 20 * n) { k = k + 1; }
      exit(k);
    }
  )");
  std::uint64_t rounds = 0, visits = 0;
  for (unsigned workers = 2; workers <= 4; ++workers) {
    for (int quantum : {1, 7, 64}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " quantum=" + std::to_string(quantum));
      const auto f = jit_matches_switch(fan, workers_quantum(workers, quantum), "main", {2000});
      EXPECT_GT(f.stats.steals_served, 0u);
      EXPECT_GT(f.stats.suspends, 0u);
      const auto d = jit_matches_switch(drain, workers_quantum(workers, quantum), "main", {300});
      EXPECT_EQ(d.result, 6000);
      // With two workers both are busy until the child drains.
      if (workers == 2) {
        EXPECT_GT(d.jit.native_rounds, 0u);
      }
      rounds += f.jit.native_rounds;
      visits += f.jit.host_visits;
    }
  }
  // Batches really ran: most of fan's native rounds cost no host visit.
  EXPECT_GT(rounds, 2 * visits) << rounds << " rounds, " << visits << " visits";
}

TEST(StvmJitRounds, RunawayBatchFailsAtTheSameInstructionCount) {
  // Both workers spin forever with no cold instruction, so only the
  // max_steps cap ends a batch: it must stop at the last whole round
  // at or below max_steps, where the switch engine's check fires.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = compile_stc(R"(
    func child(n) {
      var i = 0;
      while (i >= 0) { poll(); i = i + 1; }
    }
    func main(n) {
      async child(n);
      var k = 0;
      while (k >= 0) { k = k + 1; }
    }
  )");
  for (int quantum : {1, 7, 64}) {
    SCOPED_TRACE("quantum=" + std::to_string(quantum));
    VmConfig cfg = workers_quantum(2, quantum);
    cfg.max_steps = 50'000;
    const auto r = jit_matches_switch(prog, cfg, "main", {0});
    EXPECT_TRUE(r.threw);
    EXPECT_GT(r.stats.instructions, cfg.max_steps);
    EXPECT_GT(r.jit.native_rounds, 2 * r.jit.host_visits);
  }
}

TEST(StvmJitPoll, PendingStealRequestTakesTheHostPath) {
  // main never forks, so worker 1 idles and keeps posting steal requests
  // to worker 0; only the host's __st_poll serves (rejects) them.  A
  // poll run natively while a request is pending would leave the thief
  // waiting and the rejection count short.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = compile_stc(R"(
    func main(n) {
      var k = 0;
      while (k < n) { poll(); k = k + 1; }
      exit(k);
    }
  )");
  for (int quantum : {1, 7, 64}) {
    SCOPED_TRACE("quantum=" + std::to_string(quantum));
    const auto r = jit_matches_switch(prog, workers_quantum(2, quantum), "main", {3000});
    EXPECT_EQ(r.result, 3000);
    EXPECT_GT(r.stats.steals_rejected, 0u);
  }
}

TEST(StvmJitPoll, RetiredTopExportedFrameIsPoppedByThePoll) {
  // Steals export the victims' frames; a frame that finishes while
  // exported zeroes its return-address slot (retires), and the next
  // poll's shrink pops it.  A native poll must see the zeroed word: a
  // poll that skipped it would leave the pop to a later host poll or
  // idle step, so the shrink events -- who popped how many frames, in
  // what order -- would drift from the switch engine's even where the
  // end-of-run totals catch up.  Tracing keeps the per-quantum path.
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const std::uint64_t saved_mask = stu::trace_mask();
  stu::trace_set_mask(std::uint64_t{1} << stu::kTraceVmShrink);
  const auto prog = programs::compile(programs::pfib(), /*with_stdlib=*/true);
  auto shrinks = [&](VmConfig cfg, std::uint64_t* reclaimed) {
    cfg.count_opcodes = true;
    Vm vm(prog, cfg);
    EXPECT_EQ(vm.run("pmain", {16}), 987);
    *reclaimed = vm.stats().shrink_reclaimed;
    std::vector<std::pair<std::uint16_t, std::uint64_t>> events;
    for (const auto& r : vm.trace_ring().snapshot()) events.emplace_back(r.worker, r.a);
    return events;
  };
  for (unsigned workers : {2u, 4u}) {
    for (int quantum : {7, 64}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " quantum=" + std::to_string(quantum));
      VmConfig cfg = workers_quantum(workers, quantum);
      std::uint64_t sw_reclaimed = 0, jit_reclaimed = 0;
      cfg.dispatch = VmConfig::Dispatch::kSwitch;
      const auto sw = shrinks(cfg, &sw_reclaimed);
      cfg.dispatch = VmConfig::Dispatch::kJit;
      const auto jt = shrinks(cfg, &jit_reclaimed);
      EXPECT_GT(sw_reclaimed, 0u);
      EXPECT_EQ(jit_reclaimed, sw_reclaimed);
      EXPECT_EQ(jt, sw);
    }
  }
  stu::trace_set_mask(saved_mask);
  stu::trace_sink_clear();
}

TEST(StvmJitPoll, NoOpPollsStayNative) {
  // pfib polls at every task entry.  With one worker nothing ever asks
  // for a steal and nothing retires, so the only host visits left are
  // the few cold builtins (alloc, exit) and the batch ends; when every
  // poll was a cold exit, pfib(20) made 10,951 visits.  On four workers
  // only polls with work, suspends and the batch ends remain: the
  // ROADMAP gate is <= 0.1 visits per 1k instructions at x1, <= 0.5 at
  // x4 (bench_stvm_postproc prints the same column).
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = programs::compile(programs::pfib(), /*with_stdlib=*/true);
  const auto one = jit_matches_switch(prog, workers_quantum(1, 64), "pmain", {20});
  EXPECT_EQ(one.result, 6765);
  EXPECT_LT(one.jit.host_visits, 200u);
  EXPECT_LE(one.jit.host_visits * 10'000, one.stats.instructions);
  const auto four = jit_matches_switch(prog, workers_quantum(4, 64), "pmain", {20});
  EXPECT_EQ(four.result, 6765);
  EXPECT_LE(four.jit.host_visits * 2'000, four.stats.instructions);
}

TEST(StvmJitRounds, CountersAreReported) {
  if (!Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const auto prog = programs::compile(programs::pfib(), /*with_stdlib=*/true);
  VmConfig cfg = workers_quantum(4, 64);
  cfg.dispatch = VmConfig::Dispatch::kJit;
  Vm vm(prog, cfg);
  vm.run("pmain", {14});
  const std::string json = vm.metrics_json();
  EXPECT_NE(json.find("\"jit\":{\"native_rounds\":" +
                      std::to_string(vm.jit_counters().native_rounds) +
                      ",\"host_visits\":" + std::to_string(vm.jit_counters().host_visits) + "}"),
            std::string::npos)
      << json;
}

}  // namespace
