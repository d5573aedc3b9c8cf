// Baseline template JIT for the STVM (the default engine where native
// emission is available; ST_STVM_DISPATCH=jit): compiles the run-form
// stream (predecode.hpp) to native x86-64, one block per
// architectural instruction, into a per-module W^X buffer.
//
// Design contract (DESIGN.md §5.13):
//  - Block i implements architectural instruction i, so the native
//    instruction pointer is always at a block head whose index IS the
//    architectural pc -- suspend, unwind, trampoline return and
//    fork-point lookup need no deopt maps, exactly like the switch
//    engine's architectural stream.
//  - The quantum budget lives in a host register and is checked and
//    decremented once per architectural instruction *before* that
//    instruction's side effects, so multi-worker interleaving and
//    sched-log replay digests are bit-identical to the switch engine.
//  - Cold operations (builtin calls, halt, trampoline/builtin jump
//    targets, division, anything touching an unmapped register where no
//    scratch is free) exit to the host at the *unexecuted* instruction's
//    pc; the VM then single-steps it with the portable switch engine
//    (the differential-fuzz oracle) and re-enters.  Every VmStats field
//    and the per-opcode histogram therefore match the switch engine
//    exactly.
//  - STVM r0..r7 map to host r8..r15, lr/sp/fp to rbp/rsi/rdi; rbx
//    holds the memory base, rcx the remaining budget, rax/rdx are
//    scratch.  The PR-3 static verifier proves calling-standard
//    conformance, so no register-shape checks are re-emitted; memory
//    bounds checks stay (they are a VM guarantee, not a verified one).
//  - Registers r8..r11/r15 of the STVM have no host home and are
//    accessed through the worker's architectural register file via the
//    JitState mailbox (hot only in the §5.2 augmented-epilogue scratch).
//  - A round of busy workers runs in one native entry: at a spent
//    budget the quantum stub spills the worker, discards its native call
//    frames and switches to the next JitSlot, so the host is visited
//    only after the last worker's quantum or at a cold instruction.  A
//    batch of such rounds wraps from the last slot back to the first.
//  - `call __st_poll` with nothing to serve -- no steal request, no
//    retired frame atop the exported set -- runs natively; only a poll
//    with work exits to the host (the worker's poll word, JitSlot::poll).
#pragma once

#include <cstdint>
#include <vector>

#include "stvm/predecode.hpp"

namespace stvm {

/// True when this build can emit and execute native code (x86-64 Linux
/// with a GNU-flavoured toolchain).  Elsewhere JitProgram::compile
/// returns false and the Vm constructor falls back to the switch
/// engine (docs/OBSERVABILITY.md, ST_STVM_DISPATCH=jit).
bool jit_available();

/// One worker of a native round: what the quantum stub needs to switch
/// to it without a host visit.
///
/// 24 bytes, as before the poll word joined it: pc and poll fit in 32
/// bits (compile() refuses code or memory spans that do not), and the
/// slot array's malloc size is one of the allocations that decide which
/// of two heap layouts perfbench's dnc-fine reads for peak_rss_mb
/// (EXPERIMENTS.md).
struct JitSlot {
  Word* regs = nullptr;   ///< the worker's architectural register file
  std::int32_t pc = 0;    ///< in: entry pc; out: pc where its quantum ended
  /// Its poll word: 0 = no steal request and an empty exported set (a
  /// poll is a no-op); < 0 = a steal request is pending (a poll exits to
  /// the host); > 0 = the VM address of the topmost exported frame's
  /// return-address slot (a poll is a no-op while that word is nonzero,
  /// i.e. while shrink has nothing to pop).  Invariant per stretch for
  /// the same reason as maxe: requests are posted only by idle workers
  /// between host steps, and the exported set only changes in cold code.
  std::int32_t poll = 0;
  Word maxe = 0;          ///< its getmaxe sentinel
};

/// Host <-> native mailbox.  Lives at a fixed address inside the Vm for
/// the lifetime of the compiled program; the emitted code embeds the
/// address as an immediate.
struct JitState {
  Word* regs = nullptr;        ///< running worker's architectural register file
  std::int64_t budget = 0;     ///< in: instructions allowed; out: remaining
  std::int64_t pc = 0;         ///< in: entry pc; out: exit pc (architectural)
  std::int64_t exit_cold = 0;  ///< out: 0 = budget exhausted, 1 = cold instruction
  Word maxe = 0;               ///< worker's getmaxe sentinel (invariant per stretch:
                               ///< the exported set only mutates inside builtins /
                               ///< trampolines, which always exit native code first)
  std::uint64_t rsp_entry = 0;  ///< host rsp at entry; exit stubs restore it so
                                ///< the native call/ret return-prediction pairing
                                ///< never leaks stack across quanta (jit.cpp)
  /// Native rounds.  While slot != last, a spent budget does not return
  /// to the host: the quantum stub stores the pc into *slot, advances
  /// slot, loads the next worker's registers, regs, maxe and poll word,
  /// and gives it a fresh `quantum`.  Out: slot is the worker that
  /// exited.  An entry for one worker sets last == slot.
  JitSlot* slot = nullptr;
  JitSlot* last = nullptr;
  std::int64_t quantum = 0;
  Word poll = 0;  ///< running worker's poll word (JitSlot::poll)
  /// Batched rounds.  At the last slot's spent budget, while wraps > 0
  /// the stub decrements it and continues at `first` instead of
  /// returning.  Out: the wraps left, so the host knows the laps run.
  JitSlot* first = nullptr;
  std::int64_t wraps = 0;
};

/// One module compiled to native blocks.  Noncopyable: the emitted code
/// embeds the addresses of this object's block table and of the owning
/// Vm's state/arrays.
class JitProgram {
 public:
  JitProgram() = default;
  ~JitProgram();
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  /// Compiles the run-form stream (pre.rcode, code_size + 1
  /// slots including the kBadPc sentinel).  `op_retired` is null when
  /// the opcode histogram is off: the counting stores are then simply
  /// not emitted, so a run without the histogram pays nothing for it.
  /// Returns false -- leaving the program empty -- when native emission
  /// is unavailable on this build/host, when the memory span does not
  /// fit the emitted 32-bit bounds-check immediates, or when mmap/
  /// mprotect fail; the caller falls back to the switch engine.
  bool compile(const Predecoded& pre, std::int64_t code_size, std::uint64_t mem_words,
               Word* mem_base, JitState* state, std::uint64_t* op_retired);

  bool compiled() const { return entry_ != nullptr; }

  /// Runs native blocks starting at state->pc until the budget is
  /// exhausted -- on the last slot of a round -- or a cold instruction is
  /// reached (state->exit_cold).  Never throws; all faults are deferred
  /// to the interpreter seam.
  void enter() const { entry_(); }

  /// True when architectural instruction `pc` compiled to a bare cold
  /// exit; the host single-steps it directly instead of paying the
  /// native enter/exit round trip.
  bool cold_at(std::int64_t pc) const {
    return cold_[static_cast<std::size_t>(pc)] != 0;
  }

  std::size_t code_bytes() const { return code_bytes_; }   ///< emitted native bytes
  std::size_t cold_slots() const { return cold_slots_; }   ///< untranslated slots

 private:
  void (*entry_)() = nullptr;
  void* buf_ = nullptr;          ///< mmap'd W^X region (RX after compile)
  std::size_t buf_size_ = 0;
  std::size_t code_bytes_ = 0;
  std::size_t cold_slots_ = 0;
  std::vector<std::uint64_t> blocks_;   ///< absolute block address per slot
  std::vector<std::uint8_t> cold_;      ///< 1 = slot is a bare cold exit
};

}  // namespace stvm
