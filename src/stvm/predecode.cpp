#include "stvm/predecode.hpp"

namespace stvm {

const char* run_op_name(RunOp op) {
  switch (op) {
    case RunOp::kLi: return "li";
    case RunOp::kMov: return "mov";
    case RunOp::kAdd: return "add";
    case RunOp::kSub: return "sub";
    case RunOp::kMul: return "mul";
    case RunOp::kDiv: return "div";
    case RunOp::kAddi: return "addi";
    case RunOp::kSubi: return "subi";
    case RunOp::kLd: return "ld";
    case RunOp::kSt: return "st";
    case RunOp::kCall: return "call";
    case RunOp::kCallr: return "callr";
    case RunOp::kJmp: return "jmp";
    case RunOp::kJr: return "jr";
    case RunOp::kBeq: return "beq";
    case RunOp::kBne: return "bne";
    case RunOp::kBlt: return "blt";
    case RunOp::kBge: return "bge";
    case RunOp::kBltu: return "bltu";
    case RunOp::kBgeu: return "bgeu";
    case RunOp::kFetchAdd: return "fetchadd";
    case RunOp::kGetMaxE: return "getmaxe";
    case RunOp::kHalt: return "halt";
    case RunOp::kCallBuiltin: return "call.builtin";
    case RunOp::kPoll: return "call.poll";
    case RunOp::kBadPc: return "badpc";
    case RunOp::kCount: break;
  }
  return "?";
}

std::array<std::uint64_t, kNumRunOps> canonicalize_opcode_histogram(
    const std::array<std::uint64_t, kNumRunOps>& h) {
  std::array<std::uint64_t, kNumRunOps> out{};
  for (int i = 0; i < static_cast<int>(RunOp::kCallBuiltin); ++i) {
    out[static_cast<std::size_t>(i)] = h[static_cast<std::size_t>(i)];
  }
  // The split forms are a decode-time distinction; architecturally they
  // retired a call.
  out[static_cast<std::size_t>(RunOp::kCall)] +=
      h[static_cast<std::size_t>(RunOp::kCallBuiltin)] +
      h[static_cast<std::size_t>(RunOp::kPoll)];
  return out;
}

Predecoded predecode(const std::vector<Instr>& code) {
  Predecoded out;
  out.rcode.resize(code.size() + 1);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Instr& ins = code[i];
    RInstr& r = out.rcode[i];
    r.d = static_cast<std::uint8_t>(ins.rd);
    r.a = static_cast<std::uint8_t>(ins.ra);
    r.b = static_cast<std::uint8_t>(ins.rb);
    r.imm = ins.imm;
    RunOp h = static_cast<RunOp>(ins.op);  // Op order mirrors the RunOp head
    switch (ins.op) {
      case Op::kCall:
        if (ins.target >= kBuiltinBase) {
          h = ins.label == kPollEntry ? RunOp::kPoll : RunOp::kCallBuiltin;
          r.imm = ins.target - kBuiltinBase;
        } else {
          r.t = static_cast<std::int32_t>(ins.target);
        }
        break;
      case Op::kJmp:
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu:
        r.t = static_cast<std::int32_t>(ins.target);
        break;
      default:
        break;
    }
    r.h = static_cast<std::uint8_t>(h);
  }
  // Sentinel: falling off the end (or a call/jmp resolved to the label at
  // end-of-code) reaches kBadPc, which reports "pc out of code range"
  // exactly like the switch engine's fetch bounds check.
  out.rcode[code.size()].h = static_cast<std::uint8_t>(RunOp::kBadPc);
  return out;
}

}  // namespace stvm
