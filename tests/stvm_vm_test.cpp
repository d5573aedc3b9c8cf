// The STVM running postprocessed code: sequential execution, real
// suspend/restart frame surgery, the Section 5.3 scenarios, retirement
// and shrink -- all with per-instruction safety validation enabled.
#include "stvm/vm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "stvm/programs.hpp"

namespace {

using namespace stvm;

VmConfig validated(unsigned workers = 1) {
  VmConfig cfg;
  cfg.workers = workers;
  cfg.validate = true;
  return cfg;
}

TEST(StvmVm, SequentialFib) {
  const auto prog = programs::compile(programs::fib(), /*with_stdlib=*/false);
  for (const auto& [n, expect] : std::vector<std::pair<Word, Word>>{
           {0, 0}, {1, 1}, {2, 1}, {10, 55}, {15, 610}}) {
    Vm vm(prog, validated());
    EXPECT_EQ(vm.run("main", {n}), expect) << "fib(" << n << ")";
  }
}

TEST(StvmVm, SequentialFibLeavesNoExports) {
  const auto prog = programs::compile(programs::fib(), false);
  Vm vm(prog, validated());
  vm.run("main", {12});
  EXPECT_EQ(vm.exported_count(0), 0u);
  EXPECT_EQ(vm.stats().suspends, 0u);
}

TEST(StvmVm, UnknownEntryRejected) {
  const auto prog = programs::compile(programs::fib(), false);
  Vm vm(prog);
  EXPECT_THROW(vm.run("nope"), VmError);
}

TEST(StvmVm, RunIsSingleShot) {
  const auto prog = programs::compile(programs::fib(), false);
  Vm vm(prog);
  vm.run("main", {5});
  EXPECT_THROW(vm.run("main", {5}), VmError);
}

// ---- Section 5.3 scenarios, executed with real frame surgery ----------

TEST(StvmVm, Figure15ReturnRetiresMaxExportedFrame) {
  const auto prog = programs::compile(programs::figure15(), false);
  Vm vm(prog, validated());
  vm.run("scenario_main");
  EXPECT_EQ(vm.output(), (std::vector<Word>{1, 2, 4, 3, 5}));
  // ggg's and fff's frames retired (they were exported and finished out
  // of LIFO order); nothing was corrupted (validation was on), and the
  // suspend unwound exactly two frames.
  EXPECT_EQ(vm.stats().suspends, 1u);
  EXPECT_EQ(vm.stats().frames_unwound, 2u);
  EXPECT_EQ(vm.stats().restarts, 1u);
  // Exactly one trampoline is traversed: fff's return through the slot
  // the restart patched (the root record is bypassed by __st_exit).
  EXPECT_EQ(vm.stats().trampolines_taken, 1u);
}

TEST(StvmVm, Scenario1RestartExportsCurrentFrame) {
  const auto prog = programs::compile(programs::scenario1(), false);
  Vm vm(prog, validated());
  vm.run("scenario_main");
  EXPECT_EQ(vm.output(), (std::vector<Word>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(vm.stats().suspends, 1u);
  EXPECT_EQ(vm.stats().restarts, 1u);
}

// ---- parallel fib on one worker: pure LIFO, no suspensions ------------

TEST(StvmVm, ParallelFibOneWorkerStaysLifo) {
  const auto prog = programs::compile(programs::pfib());
  Vm vm(prog, validated(1));
  EXPECT_EQ(vm.run("pmain", {12}), 144);
  // With one worker nothing is ever stolen, so ASYNC_CALL degenerates to
  // plain calls: no suspends, no exports left behind.
  EXPECT_EQ(vm.stats().suspends, 0u);
  EXPECT_EQ(vm.exported_count(0), 0u);
}

TEST(StvmVm, ParallelFibValuesAcrossSizes) {
  const auto prog = programs::compile(programs::pfib());
  const std::vector<std::pair<Word, Word>> cases{{2, 1}, {5, 5}, {10, 55}, {14, 377}};
  for (const auto& [n, expect] : cases) {
    Vm vm(prog, validated(1));
    EXPECT_EQ(vm.run("pmain", {n}), expect) << "pfib(" << n << ")";
  }
}

TEST(StvmVm, DeadlockIsDetected) {
  // A program that suspends and is never resumed.
  const std::string src = R"(
.proc main
main:
    subi sp, sp, 16
    st lr, [sp + 15]
    st fp, [sp + 14]
    addi fp, sp, 16
    addi r0, fp, -12
    st r0, [sp + 0]
    li r1, 1
    st r1, [sp + 1]
    call __st_suspend
    li r0, 0
    st r0, [sp + 0]
    call __st_exit
.endproc
)";
  Vm vm(programs::compile(src, false), validated(1));
  EXPECT_THROW(vm.run("main"), VmError);
}

TEST(StvmVm, RunawayProgramHitsStepBudget) {
  const std::string src = R"(
.proc main
main:
    subi sp, sp, 4
    st lr, [sp + 3]
    st fp, [sp + 2]
    addi fp, sp, 4
spin:
    jmp spin
.endproc
)";
  VmConfig cfg = validated(1);
  cfg.max_steps = 10000;
  Vm vm(programs::compile(src, false), cfg);
  EXPECT_THROW(vm.run("main"), VmError);
}

TEST(StvmVm, DivisionByZeroTraps) {
  const std::string src = R"(
.proc main
main:
    subi sp, sp, 4
    st lr, [sp + 3]
    st fp, [sp + 2]
    addi fp, sp, 4
    li r0, 1
    li r1, 0
    div r2, r0, r1
    st r2, [sp + 0]
    call __st_exit
.endproc
)";
  Vm vm(programs::compile(src, false), validated(1));
  EXPECT_THROW(vm.run("main"), VmError);
}

TEST(StvmVm, HeapAllocAndPrint) {
  const std::string src = R"(
.proc main
main:
    subi sp, sp, 4
    st lr, [sp + 3]
    st fp, [sp + 2]
    addi fp, sp, 4
    li r0, 3
    st r0, [sp + 0]
    call __st_alloc
    li r1, 77
    st r1, [r0 + 2]
    ld r2, [r0 + 2]
    st r2, [sp + 0]
    call __st_print
    st r2, [sp + 0]
    call __st_exit
.endproc
)";
  Vm vm(programs::compile(src, false), validated(1));
  EXPECT_EQ(vm.run("main"), 77);
  EXPECT_EQ(vm.output(), (std::vector<Word>{77}));
}

TEST(StvmVm, WorkerIdAndCount) {
  const std::string src = R"(
.proc main
main:
    subi sp, sp, 4
    st lr, [sp + 3]
    st fp, [sp + 2]
    addi fp, sp, 4
    call __st_worker_id
    st r0, [sp + 0]
    call __st_print
    call __st_num_workers
    st r0, [sp + 0]
    call __st_exit
.endproc
)";
  Vm vm(programs::compile(src, false), validated(3));
  EXPECT_EQ(vm.run("main"), 3);
  EXPECT_EQ(vm.output(), (std::vector<Word>{0}));
}

// The counter table drives metrics_json: every ST_VM_COUNTERS row appears
// in "counters" under its name with the value stats() holds, and nothing
// else does.
TEST(CounterTable, VmMetricsJsonCarriesEveryRow) {
  const auto prog = programs::compile(programs::pfib());
  Vm vm(prog, validated(4));
  EXPECT_EQ(vm.run("pmain", {14}), 377);
  const std::string json = vm.metrics_json();
  const std::size_t begin = json.find("\"counters\":{"), end = json.find('}', begin);
  ASSERT_NE(begin, std::string::npos) << json;
  long rows = 0;
  auto expect_row = [&](const std::string& key, std::uint64_t want) {
    ++rows;
    const std::size_t at = json.find('"' + key + "\":", begin);
    ASSERT_LT(at, end) << key << " missing from " << json;
    EXPECT_EQ(std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10), want) << key;
  };
#define EXPECT_ROW(field) expect_row(#field, vm.stats().field);
  ST_VM_COUNTERS(EXPECT_ROW)
#undef EXPECT_ROW
  // One colon per row, plus the "counters" key's own.
  EXPECT_EQ(std::count(json.begin() + begin, json.begin() + end, ':'), rows + 1) << json;
  EXPECT_GT(vm.stats().steals_served, 0u);
}

}  // namespace
