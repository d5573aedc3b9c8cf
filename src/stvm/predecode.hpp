// Decode-time translation of linked STVM code into a *run-form* stream
// for the baseline JIT (jit.hpp), which compiles one native block per
// slot.
//
// The run form is deliberately laid out 1:1 with the architectural
// stream: slot i of the run stream corresponds to instruction i of the
// module, so the run pc IS the architectural pc and the paper-visible
// machinery (suspend/unwind resume pcs, trampoline return addresses,
// fork-point lookups, fail() diagnostics) needs no translation table.
// What changes per slot: operands are widened and re-packed into a
// dense POD (no label strings; branch/call targets pre-resolved), and
// calls to runtime entry points get their own handler ids (kPoll for the
// steal poll, kCallBuiltin for the rest).  The portable switch engine
// never reads this stream.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "stvm/isa.hpp"

namespace stvm {

/// Handler space of the run-form stream.  The first entries mirror Op
/// one-to-one (same order -- the switch engine's per-opcode retirement
/// histogram indexes them directly); then the split forms.
enum class RunOp : std::uint8_t {
  // -- mirrors of Op (keep in Op declaration order) ----------------------
  kLi, kMov, kAdd, kSub, kMul, kDiv, kAddi, kSubi, kLd, kSt,
  kCall, kCallr, kJmp, kJr, kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kFetchAdd, kGetMaxE, kHalt,
  // -- split forms -------------------------------------------------------
  kCallBuiltin,  ///< call whose resolved target is a runtime entry point
  kPoll,         ///< call __st_poll (the JIT runs a no-op poll natively)
  kBadPc,        ///< out-of-code sentinel slot (index code.size())
  kCount,
};

inline constexpr int kNumRunOps = static_cast<int>(RunOp::kCount);

/// Human name for diagnostics / the retirement histogram ("addi",
/// "call.builtin", ...).
const char* run_op_name(RunOp op);

/// Folds a retirement histogram (Vm::opcode_retired()) into canonical
/// architectural opcode space: the builtin-split call forms rejoin
/// kCall.  Histograms taken under either engine of the same program run
/// compare bit-equal after canonicalization.  Only indices below
/// kCallBuiltin (the Op mirror range) are nonzero in the result.
std::array<std::uint64_t, kNumRunOps> canonicalize_opcode_histogram(
    const std::array<std::uint64_t, kNumRunOps>& h);

/// One slot of the run-form stream.  Padded to 32 bytes: the stream's
/// size decides which malloc bin it lands in, and with it which of two
/// heap layouts perfbench's dnc-fine reads for peak_rss_mb
/// (EXPERIMENTS.md).
struct RInstr {
  std::uint8_t h = 0;              ///< RunOp of this instruction
  std::uint8_t d = 0, a = 0, b = 0;  ///< register operands
  std::int32_t t = 0;              ///< resolved branch/call target (code index)
  Word imm = 0;                    ///< immediate / displacement / builtin id
  std::uint8_t pad[16] = {};
};
static_assert(sizeof(RInstr) == 32, "see the padding note above");

struct Predecoded {
  /// code.size() + 1 slots; the last is the kBadPc sentinel so a pc that
  /// falls off the end fails exactly like the switch engine's bounds
  /// check instead of reading past the stream.
  std::vector<RInstr> rcode;
};

/// Translates resolved (post-link, post-postprocessing) code into run
/// form, one slot per architectural instruction plus the sentinel.
Predecoded predecode(const std::vector<Instr>& code);

}  // namespace stvm
