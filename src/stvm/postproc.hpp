// The assembly postprocessor (paper Section 3.3 and 5.2).
//
// Input: an assembled Module whose procedures follow the calling standard
// of isa.hpp.  The postprocessor performs, per procedure:
//
//   1. *Fork-point extraction*: a call bracketed by the dummy calls
//      __st_fork_block_begin / __st_fork_block_end is a fork; the dummy
//      calls are removed and the call's address is recorded.
//   2. *Frame-format extraction*: frame size, return-address slot offset,
//      parent-FP slot offset, callee-save spill slots -- all recovered by
//      scanning the prologue/epilogue instructions, not trusted from
//      annotations.
//   3. *Arguments-region measurement*: the maximum x over every
//      `st _, [sp + x]` outside the prologue (the paper's max-SP-offset
//      scan; prologue saves address the frame, not the outgoing-argument
//      region, and are excluded just as the paper's AWK scripts delimit
//      them).
//   4. *Epilogue augmentation*: `mov sp, fp` (the frame free) becomes the
//      Section 5.2 check -- the frame is freed only when
//      SP < FP < maxE (unsigned); otherwise the return-address slot is
//      zeroed (the retirement mark) and SP is retained.  This costs the
//      paper's quoted "1 load, two compares, two conditional branches"
//      plus the mark on the retire path.
//   5. *Augmentation criterion* (Section 8.1): leaf procedures, and
//      procedures that only call procedures already known unaugmented,
//      keep their original epilogue.  Calls to runtime entry points or
//      indirect calls force augmentation.
//   6. *Pure-epilogue replica*: for every frame-owning procedure a replica
//      that restores callee-saves + FP and jumps to the return address
//      WITHOUT freeing the frame -- what the runtime executes to unwind a
//      frame during suspend.
//
// Output: the rewritten Module plus a ProcDescriptor per procedure (the
// link-time descriptor table of Section 3.3).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "stvm/module.hpp"

namespace stvm {

/// Postprocessor diagnostic.  Every throw site names the procedure and,
/// when one is at fault, the instruction index, rendered in the same
/// "proc 'name' @instr: message" format the static verifier
/// (stvm/verify.hpp) uses, so both toolchain stages read alike.
struct PostprocError : std::runtime_error {
  PostprocError(std::string proc, Addr instr, const std::string& m)
      : std::runtime_error(render(proc, instr, m)),
        proc_name(std::move(proc)),
        instr_index(instr) {}

  std::string proc_name;  ///< offending procedure ("" = module-level)
  Addr instr_index = -1;  ///< offending instruction index (-1 = whole proc)

 private:
  static std::string render(const std::string& proc, Addr instr, const std::string& m) {
    std::string out = proc.empty() ? "module" : "proc '" + proc + "'";
    if (instr >= 0) out += " @" + std::to_string(instr);
    return out + ": " + m;
  }
};

struct PostprocResult {
  Module module;                          ///< rewritten code
  std::vector<ProcDescriptor> descriptors;
  // Statistics (the Section 8.1 augmentation report).
  std::size_t procs_total = 0;
  std::size_t procs_augmented = 0;
  std::size_t fork_points = 0;
  std::size_t instructions_added = 0;
  /// Static-verifier memo (verify.cpp): 1 after this module verified
  /// cleanly.  The verdict is a property of the module, not of any
  /// engine instantiation, so under ST_VERIFY=1 a module shared by
  /// several Vms (the differential suites run switch/jit over
  /// one PostprocResult) is verified exactly once.  Mutable because
  /// verification takes the module by const reference.
  mutable int verify_verdict = 0;
};

/// Names of the fork-bracket dummy procedures.
inline constexpr const char* kForkBegin = "__st_fork_block_begin";
inline constexpr const char* kForkEnd = "__st_fork_block_end";

/// True for runtime entry points (__st_*): calls to these force epilogue
/// augmentation of the caller.
bool is_runtime_entry(const std::string& label);

/// Runs the postprocessor.  Throws PostprocError on malformed procedures
/// (e.g. an epilogue whose frame free precedes the return-address load).
/// With force_augment_all the Section 8.1 criterion is bypassed and every
/// frame-owning procedure gets the augmented epilogue -- used by the
/// overhead ablation to price the criterion itself.
PostprocResult postprocess(const Module& input, bool force_augment_all = false);

}  // namespace stvm
