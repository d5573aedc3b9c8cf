// Predecoder unit tests: the run-form stream's 1:1 layout contract
// (run pc == architectural pc) with its trailing sentinel, and the
// engine-level consequences -- identical architectural results under
// both engines and the retirement-histogram sum invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "stvm/asm.hpp"
#include "stvm/postproc.hpp"
#include "stvm/predecode.hpp"
#include "stvm/programs.hpp"
#include "stvm/vm.hpp"

namespace {

using namespace stvm;

Instr I(Op op, int rd = 0, int ra = 0, int rb = 0, Word imm = 0, Addr target = -1) {
  Instr ins;
  ins.op = op;
  ins.rd = rd;
  ins.ra = ra;
  ins.rb = rb;
  ins.imm = imm;
  ins.target = target;
  return ins;
}

/// Shared invariants of any predecoded stream: one slot per instruction
/// plus the trailing kBadPc sentinel; each slot's handler mirrors its
/// opcode (builtin calls split off, the steal poll into its own form),
/// with its operands and its resolved target.
void check_stream_invariants(const std::vector<Instr>& code, const Predecoded& pre) {
  ASSERT_EQ(pre.rcode.size(), code.size() + 1);
  EXPECT_EQ(static_cast<RunOp>(pre.rcode.back().h), RunOp::kBadPc);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Instr& ins = code[i];
    const RInstr& r = pre.rcode[i];
    const bool builtin = ins.op == Op::kCall && ins.target >= kBuiltinBase;
    const RunOp split = ins.label == kPollEntry ? RunOp::kPoll : RunOp::kCallBuiltin;
    EXPECT_EQ(static_cast<RunOp>(r.h), builtin ? split : static_cast<RunOp>(ins.op))
        << "slot " << i;
    EXPECT_EQ(r.d, ins.rd) << "slot " << i;
    EXPECT_EQ(r.a, ins.ra) << "slot " << i;
    EXPECT_EQ(r.b, ins.rb) << "slot " << i;
    if (builtin) {
      EXPECT_EQ(r.imm, ins.target - kBuiltinBase) << "slot " << i;
    } else {
      EXPECT_EQ(r.imm, ins.imm) << "slot " << i;
    }
    if ((ins.op == Op::kCall && !builtin) || ins.op == Op::kJmp ||
        (ins.op >= Op::kBeq && ins.op <= Op::kBgeu)) {
      EXPECT_EQ(r.t, ins.target) << "slot " << i;
    }
  }
}

TEST(Predecode, UnfusedStreamIsOneToOne) {
  const std::vector<Instr> code = {
      I(Op::kLi, 1, 0, 0, 7),
      I(Op::kAddi, 2, 1, 0, 3),
      I(Op::kHalt),
  };
  check_stream_invariants(code, predecode(code));
  // Real postprocessed code: augmented epilogues, forks and builtin
  // calls.  Resolve labels as the Vm does (runtime entries land at or
  // above kBuiltinBase, so those calls take the split form).
  const PostprocResult prog = postprocess(
      assemble(programs::pfib() + "\n" + programs::stdlib()));
  std::vector<Instr> linked = prog.module.code;
  for (Instr& ins : linked) {
    if (ins.label.empty()) continue;
    const auto it = prog.module.labels.find(ins.label);
    ins.target = it != prog.module.labels.end() ? static_cast<Addr>(it->second)
                                                : kBuiltinBase;
  }
  const Predecoded pre = predecode(linked);
  check_stream_invariants(linked, pre);
  EXPECT_TRUE(std::any_of(pre.rcode.begin(), pre.rcode.end(), [](const RInstr& r) {
    return static_cast<RunOp>(r.h) == RunOp::kPoll;
  })) << "pfib's steal polls lost their run-form op";
}

TEST(Predecode, InvalidDispatchEnvThrows) {
  ::setenv("ST_STVM_DISPATCH", "bogus", 1);
  EXPECT_THROW(Vm vm(postprocess(assemble(programs::fib()))), VmError);
  ::unsetenv("ST_STVM_DISPATCH");
}

/// Both engines on the same program: identical result and instruction
/// count, and -- when counting -- the histogram sum invariant
/// sum(count[h]) == stats().instructions, which proves every retired
/// architectural instruction is attributed to exactly one handler.
TEST(Predecode, HistogramSumInvariantUnderBothEngines) {
  const PostprocResult prog = postprocess(
      assemble(programs::pfib() + "\n" + programs::stdlib()));
  for (const auto dispatch : {VmConfig::Dispatch::kSwitch, VmConfig::Dispatch::kJit}) {
    VmConfig cfg;
    cfg.workers = 2;
    cfg.dispatch = dispatch;
    cfg.count_opcodes = true;
    Vm vm(prog, cfg);
    EXPECT_EQ(vm.run("pmain", {12}), 144);
    std::uint64_t attributed = 0;
    for (const std::uint64_t n : vm.opcode_retired()) attributed += n;
    EXPECT_EQ(attributed, vm.stats().instructions)
        << (dispatch == VmConfig::Dispatch::kSwitch ? "switch" : "jit");
  }
}

/// Quantum boundaries landing anywhere -- including every instruction --
/// must keep the two engines architecturally identical.
TEST(Predecode, EnginesAgreeAcrossQuanta) {
  const PostprocResult prog = postprocess(
      assemble(programs::pfib() + "\n" + programs::stdlib()));
  for (const int quantum : {1, 2, 3, 5, 64}) {
    std::uint64_t instrs[2] = {0, 0};
    int k = 0;
    for (const auto dispatch : {VmConfig::Dispatch::kSwitch, VmConfig::Dispatch::kJit}) {
      VmConfig cfg;
      cfg.workers = 3;
      cfg.quantum = quantum;
      cfg.dispatch = dispatch;
      Vm vm(prog, cfg);
      EXPECT_EQ(vm.run("pmain", {11}), 89) << "quantum=" << quantum;
      instrs[k++] = vm.stats().instructions;
    }
    EXPECT_EQ(instrs[0], instrs[1]) << "quantum=" << quantum;
  }
}

}  // namespace
