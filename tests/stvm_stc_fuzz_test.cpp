// Differential fuzzing of the STC -> assembler -> postprocessor -> VM
// pipeline: random programs are generated together with a C++ reference
// evaluation; the compiled result must match on every seed.  Exercises
// expression codegen (temporaries as frame slots across nested calls),
// control flow, arrays and the calling standard end to end.  Every
// program additionally runs under both execution engines (the portable
// switch interpreter and -- on hosts that support it -- the baseline
// template JIT) and the engines must agree on the result, the print
// stream and every architectural VmStats field.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stvm/asm.hpp"
#include "stvm/postproc.hpp"
#include "stvm/programs.hpp"
#include "stvm/stc.hpp"
#include "stvm/verify.hpp"
#include "stvm/vm.hpp"
#include "util/rng.hpp"
#include "util/sched_log.hpp"

namespace {

using stvm::Word;

/// Compiles STC source through the full pipeline AND statically verifies
/// the postprocessed module (stvm/verify.hpp) before it is handed to the
/// VM -- every fuzz-generated program is a verifier test case too.
stvm::PostprocResult compile_verified(const std::string& src,
                                      bool with_stdlib = false) {
  std::string asm_text = stvm::stc::compile_to_asm(src);
  if (with_stdlib) asm_text += "\n" + stvm::programs::stdlib();
  stvm::PostprocResult prog = stvm::postprocess(stvm::assemble(asm_text));
  const stvm::VerifyReport report = stvm::verify_module(prog);
  EXPECT_TRUE(report.ok()) << report.summary();
  return prog;
}

/// Asserts two engines produced identical VmStats, field by field, so a
/// divergence names the counter that drifted.
void expect_stats_equal(const stvm::VmStats& x, const stvm::VmStats& y,
                        const char* who) {
  EXPECT_EQ(x.instructions, y.instructions) << who;
  EXPECT_EQ(x.suspends, y.suspends) << who;
  EXPECT_EQ(x.restarts, y.restarts) << who;
  EXPECT_EQ(x.resumes, y.resumes) << who;
  EXPECT_EQ(x.steals_served, y.steals_served) << who;
  EXPECT_EQ(x.steals_rejected, y.steals_rejected) << who;
  EXPECT_EQ(x.frames_unwound, y.frames_unwound) << who;
  EXPECT_EQ(x.shrink_reclaimed, y.shrink_reclaimed) << who;
  EXPECT_EQ(x.retired_marks_seen, y.retired_marks_seen) << who;
  EXPECT_EQ(x.trampolines_taken, y.trampolines_taken) << who;
}

/// Runs the program under both engines and asserts they agree on the
/// result, the __st_print stream and every VmStats field.  Worker
/// stepping is virtual and deterministic, so this holds exactly even
/// with suspension, stealing and migration in play -- predecode, native
/// rounds and JIT blocks must be architecturally invisible (DESIGN.md,
/// "Baseline template JIT").
Word run_differential(const stvm::PostprocResult& prog, const std::string& entry,
                      const std::vector<Word>& args, unsigned workers = 1,
                      int quantum = 64) {
  auto run_one = [&](stvm::VmConfig::Dispatch d, stvm::VmStats* stats,
                     std::vector<Word>* printed) {
    stvm::VmConfig cfg;
    cfg.workers = workers;
    cfg.quantum = quantum;
    cfg.dispatch = d;
    stvm::Vm vm(prog, cfg);
    const Word r = vm.run(entry, args);
    *stats = vm.stats();
    *printed = vm.output();
    return r;
  };
  stvm::VmStats sw;
  std::vector<Word> out_sw;
  const Word r_sw = run_one(stvm::VmConfig::Dispatch::kSwitch, &sw, &out_sw);
  if (stvm::Vm::jit_supported()) {
    stvm::VmStats jt;
    std::vector<Word> out_jt;
    const Word r_jt = run_one(stvm::VmConfig::Dispatch::kJit, &jt, &out_jt);
    EXPECT_EQ(r_sw, r_jt) << "the JIT disagrees on the result";
    EXPECT_EQ(out_sw, out_jt) << "the JIT disagrees on the __st_print stream";
    expect_stats_equal(sw, jt, "switch vs jit");
  }
  return r_sw;
}

/// A random expression over variables a, b, c plus an equal reference
/// evaluation.  Division/modulo are guarded to avoid by-zero traps.
struct ExprGen {
  explicit ExprGen(std::uint64_t seed) : rng(seed) {}

  std::string gen(int depth, const std::vector<Word>& env, Word& out) {
    if (depth == 0 || rng.chance(0.3)) {
      if (rng.chance(0.5)) {
        const long v = rng.range(-20, 20);
        out = v;
        return v < 0 ? "(0 - " + std::to_string(-v) + ")" : std::to_string(v);
      }
      const std::size_t which = rng.below(env.size());
      out = env[which];
      return std::string(1, static_cast<char>('a' + which));
    }
    Word lhs = 0, rhs = 0;
    const std::string ls = gen(depth - 1, env, lhs);
    const std::string rs = gen(depth - 1, env, rhs);
    switch (rng.below(6)) {
      case 0:
        out = lhs + rhs;
        return "(" + ls + " + " + rs + ")";
      case 1:
        out = lhs - rhs;
        return "(" + ls + " - " + rs + ")";
      case 2:
        out = lhs * rhs;
        return "(" + ls + " * " + rs + ")";
      case 3:
        out = lhs < rhs ? 1 : 0;
        return "(" + ls + " < " + rs + ")";
      case 4:
        out = lhs == rhs ? 1 : 0;
        return "(" + ls + " == " + rs + ")";
      default: {
        // Guarded division: (ls / (1 + rs*rs)) -- the divisor is >= 1.
        const Word divisor = 1 + rhs * rhs;
        out = divisor != 0 ? lhs / divisor : lhs;  // rhs*rhs may overflow; mirror C++
        return "(" + ls + " / (1 + " + rs + " * " + rs + "))";
      }
    }
  }

  stu::Xoshiro256 rng;
};

class StcFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StcFuzzTest, RandomExpressionsMatchReference) {
  ExprGen gen(GetParam());
  const std::vector<Word> env{gen.rng.range(-50, 50), gen.rng.range(-50, 50),
                              gen.rng.range(-50, 50)};
  for (int round = 0; round < 8; ++round) {
    Word expect = 0;
    const std::string expr = gen.gen(4, env, expect);
    const std::string src = "func main(a, b, c) { exit(" + expr + "); }";
    SCOPED_TRACE(src);
    EXPECT_EQ(run_differential(compile_verified(src), "main", env), expect);
  }
}

TEST_P(StcFuzzTest, RandomAccumulationLoopsMatchReference) {
  stu::Xoshiro256 rng(GetParam() * 977 + 5);
  const long n = rng.range(1, 40);
  const long mul = rng.range(1, 5);
  const long add = rng.range(-3, 3);
  const long mod = rng.range(2, 9);
  // acc = sum over i in [0, n) of ((i*mul + add) % mod + i)
  Word expect = 0;
  for (long i = 0; i < n; ++i) expect += (i * mul + add) % mod + i;
  const std::string src =
      "func main(n) {\n"
      "  var acc = 0;\n"
      "  var i = 0;\n"
      "  while (i < n) {\n"
      "    acc = acc + (i * " + std::to_string(mul) + " + " + std::to_string(add) + ") % " +
      std::to_string(mod) + " + i;\n"
      "    i = i + 1;\n"
      "  }\n"
      "  exit(acc);\n"
      "}";
  SCOPED_TRACE(src);
  EXPECT_EQ(run_differential(compile_verified(src), "main", {n}), expect);
}

TEST_P(StcFuzzTest, RandomArrayShuffleMatchesReference) {
  stu::Xoshiro256 rng(GetParam() * 31 + 7);
  const int k = 8;
  // Fill buf[i] = i*i, then perform random swap pairs, then checksum.
  std::vector<Word> ref(k);
  for (int i = 0; i < k; ++i) ref[static_cast<std::size_t>(i)] = i * i;
  std::string swaps;
  for (int s = 0; s < 6; ++s) {
    const int x = static_cast<int>(rng.below(k));
    const int y = static_cast<int>(rng.below(k));
    std::swap(ref[static_cast<std::size_t>(x)], ref[static_cast<std::size_t>(y)]);
    swaps += "  t = buf[" + std::to_string(x) + "];\n";
    swaps += "  buf[" + std::to_string(x) + "] = buf[" + std::to_string(y) + "];\n";
    swaps += "  buf[" + std::to_string(y) + "] = t;\n";
  }
  Word expect = 0;
  for (int i = 0; i < k; ++i) expect = expect * 7 + ref[static_cast<std::size_t>(i)];
  const std::string src =
      "func main() {\n"
      "  var buf[" + std::to_string(k) + "];\n"
      "  var i = 0;\n"
      "  while (i < " + std::to_string(k) + ") { buf[i] = i * i; i = i + 1; }\n"
      "  var t;\n" + swaps +
      "  var acc = 0;\n"
      "  i = 0;\n"
      "  while (i < " + std::to_string(k) + ") { acc = acc * 7 + buf[i]; i = i + 1; }\n"
      "  exit(acc);\n"
      "}";
  SCOPED_TRACE(src);
  EXPECT_EQ(run_differential(compile_verified(src), "main", {}), expect);
}

TEST_P(StcFuzzTest, ParallelProgramsMatchAcrossEngines) {
  // Fork/join under a randomized schedule: every seed picks a worker
  // count and quantum, so the engines are compared across suspension,
  // stealing and frame migration -- including quanta small enough that
  // native rounds switch workers every few instructions.
  const char* kSrc = R"(
    func task(n, result, jc) {
      mem[result] = pfib(n);
      jc_finish(jc);
    }
    func pfib(n) {
      if (n < 2) { return n; }
      poll();
      var jc[2];
      var a;
      jc_init(&jc, 1);
      async task(n - 1, &a, &jc);
      var b = pfib(n - 2);
      jc_join(&jc);
      return a + b;
    }
    func main(n) { exit(pfib(n)); }
  )";
  stu::Xoshiro256 rng(GetParam() * 131 + 3);
  const long n = rng.range(6, 13);
  const unsigned workers = 1 + static_cast<unsigned>(rng.below(4));
  const int quantum = static_cast<int>(rng.range(3, 64));
  Word f0 = 0, f1 = 1;
  for (long i = 0; i < n; ++i) {
    const Word next = f0 + f1;
    f0 = f1;
    f1 = next;
  }
  SCOPED_TRACE("n=" + std::to_string(n) + " workers=" + std::to_string(workers) +
               " quantum=" + std::to_string(quantum));
  const stvm::PostprocResult prog = compile_verified(kSrc, /*with_stdlib=*/true);
  EXPECT_EQ(run_differential(prog, "main", {n}, workers, quantum), f0);
}

TEST_P(StcFuzzTest, RecordMutateReplayAgreesAcrossEngines) {
  // Schedule-fuzzing round (docs/OBSERVABILITY.md): record a run's
  // schedule with one engine, perturb one quantum decision, then force
  // the mutated schedule back through BOTH engines.  The perturbed
  // schedule is one no free-run would produce, so this drives the
  // engines through interleavings ordinary differential fuzzing cannot
  // reach -- and they must still agree exactly, because forced quanta
  // are charged per architectural instruction on both.
  const char* kSrc = R"(
    func task(n, result, jc) {
      mem[result] = pfib(n);
      jc_finish(jc);
    }
    func pfib(n) {
      if (n < 2) { return n; }
      poll();
      var jc[2];
      var a;
      jc_init(&jc, 1);
      async task(n - 1, &a, &jc);
      var b = pfib(n - 2);
      jc_join(&jc);
      return a + b;
    }
    func main(n) { exit(pfib(n)); }
  )";
  stu::Xoshiro256 rng(GetParam() * 257 + 11);
  const long n = rng.range(7, 12);
  const unsigned workers = 2 + static_cast<unsigned>(rng.below(3));
  const int quantum = static_cast<int>(rng.range(3, 17));
  Word f0 = 0, f1 = 1;
  for (long i = 0; i < n; ++i) {
    const Word next = f0 + f1;
    f0 = f1;
    f1 = next;
  }
  SCOPED_TRACE("n=" + std::to_string(n) + " workers=" + std::to_string(workers) +
               " quantum=" + std::to_string(quantum));
  const stvm::PostprocResult prog = compile_verified(kSrc, /*with_stdlib=*/true);

  auto run_one = [&](stvm::VmConfig::Dispatch d, stvm::VmStats* stats) {
    stvm::VmConfig cfg;
    cfg.workers = workers;
    cfg.quantum = quantum;
    cfg.dispatch = d;
    stvm::Vm vm(prog, cfg);
    const Word r = vm.run("main", {n});
    *stats = vm.stats();
    return r;
  };

  // Record with the switch engine.
  stu::sched_set_record();
  stvm::VmStats rec_stats;
  const Word rec = run_one(stvm::VmConfig::Dispatch::kSwitch, &rec_stats);
  std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  stu::sched_set_off();
  EXPECT_EQ(rec, f0);
  ASSERT_FALSE(log.empty());

  // Halve one mid-log quantum (pick one with room to shrink).
  for (std::size_t i = log.size() / 2; i < log.size(); ++i) {
    if (log[i].kind == stu::kSchedQuantum && log[i].a > 1) {
      log[i].a /= 2;
      break;
    }
  }

  stvm::VmStats sw;
  stu::sched_set_replay(log);
  const Word r_sw = run_one(stvm::VmConfig::Dispatch::kSwitch, &sw);
  stu::sched_set_off();

  EXPECT_EQ(r_sw, f0) << "a schedule mutation must not change the result";

  // The same mutated schedule forced through the JIT: replay mode
  // disables quantum coalescing, so every forced quantum is charged per
  // architectural instruction in native code too.
  if (stvm::Vm::jit_supported()) {
    stvm::VmStats jt;
    stu::sched_set_replay(log);
    const Word r_jt = run_one(stvm::VmConfig::Dispatch::kJit, &jt);
    stu::sched_set_off();
    EXPECT_EQ(r_jt, f0);
    expect_stats_equal(sw, jt, "switch vs jit (mutated replay)");
  }
}

TEST_P(StcFuzzTest, JitRecordReplayRoundTripsDigest) {
  // Record a multi-worker run under the JIT, then replay the untouched
  // log under both engines: the recorded schedule must reproduce the
  // recording run's stats bit-identically regardless of which engine
  // recorded and which replays (record mode also disables coalescing,
  // so the JIT records per-quantum decisions like the switch engine).
  if (!stvm::Vm::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const char* kSrc = R"(
    func task(n, result, jc) {
      mem[result] = pfib(n);
      jc_finish(jc);
    }
    func pfib(n) {
      if (n < 2) { return n; }
      poll();
      var jc[2];
      var a;
      jc_init(&jc, 1);
      async task(n - 1, &a, &jc);
      var b = pfib(n - 2);
      jc_join(&jc);
      return a + b;
    }
    func main(n) { exit(pfib(n)); }
  )";
  stu::Xoshiro256 rng(GetParam() * 613 + 29);
  const long n = rng.range(7, 12);
  const unsigned workers = 2 + static_cast<unsigned>(rng.below(3));
  const int quantum = static_cast<int>(rng.range(3, 33));
  SCOPED_TRACE("n=" + std::to_string(n) + " workers=" + std::to_string(workers) +
               " quantum=" + std::to_string(quantum));
  const stvm::PostprocResult prog = compile_verified(kSrc, /*with_stdlib=*/true);

  auto run_one = [&](stvm::VmConfig::Dispatch d, stvm::VmStats* stats) {
    stvm::VmConfig cfg;
    cfg.workers = workers;
    cfg.quantum = quantum;
    cfg.dispatch = d;
    stvm::Vm vm(prog, cfg);
    const Word r = vm.run("main", {n});
    *stats = vm.stats();
    return r;
  };

  stu::sched_set_record();
  stvm::VmStats rec_stats;
  const Word rec = run_one(stvm::VmConfig::Dispatch::kJit, &rec_stats);
  const std::vector<stu::SchedDecision> log = stu::sched_take_recorded();
  stu::sched_set_off();
  ASSERT_FALSE(log.empty());

  for (const auto d : {stvm::VmConfig::Dispatch::kSwitch, stvm::VmConfig::Dispatch::kJit}) {
    stvm::VmStats rep_stats;
    stu::sched_set_replay(log);
    const Word rep = run_one(d, &rep_stats);
    stu::sched_set_off();
    EXPECT_EQ(rep, rec) << "replay changed the result";
    expect_stats_equal(rec_stats, rep_stats, "jit recording vs replay");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StcFuzzTest, ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
