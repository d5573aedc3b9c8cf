// The STVM instruction set and calling standard.
//
// STVM is a small word-addressed RISC machine that exists so this
// reproduction can perform the paper's *actual* mechanism -- an assembly
// postprocessor plus runtime frame surgery on standard-ABI stack frames
// (Sections 3, 5, 6) -- in a controlled ABI, where doing it to native g++
// output would be unsound (see DESIGN.md §2).
//
// ## Machine model
//  - 16 64-bit registers: r0..r11 general, lr (=r12) link register,
//    sp (=r13) stack pointer, fp (=r14) frame pointer.  Register 15 is
//    reserved.
//  - Word-addressed memory; the stack grows toward LOWER addresses.
//  - `call` writes the return address into lr and jumps; return is
//    `jr lr`.
//
// ## Calling standard (what the postprocessor relies on -- Section 3.1)
//  - Callee-saved: r4..r7, fp, sp.  Caller-saved: r0..r3, r8..r11, lr.
//  - Return value in r0.
//  - Arguments are passed in memory at [sp + i] (i = 0,1,...): the caller
//    stores them at small non-negative offsets from its stack top, and the
//    callee -- whose fp equals the caller's sp after the prologue -- reads
//    them at [fp + i].  This is the "pass arguments via SP" convention of
//    Section 7, and it is what makes the argument-region extension
//    machinery (Invariant 2) observable.
//  - Every non-leaf procedure keeps a separate frame pointer (the paper's
//    -fno-omit-frame-pointer assumption).
//
// ## Canonical prologue for frame size F (words):
//      subi sp, sp, F        ; allocate locals + saved slots + args region
//      st   lr, [sp + F-1]   ; save return address
//      st   fp, [sp + F-2]   ; save parent FP
//      addi fp, sp, F        ; fp = high end of the frame (= caller's sp)
//      st   r4, [fp - 3]     ; optional callee-save spills
//      ...
//
// ## Canonical epilogue:
//      ld   r4, [fp - 3]     ; optional callee-save restores
//      ...
//      ld   lr, [fp - 1]     ; return address
//      mov  sp, fp           ; free the frame          <-- the postprocessor
//      ld   fp, [fp - 2]     ; restore parent FP           rewrites this
//      jr   lr
//
// The postprocessor (postproc.hpp) scans every procedure, extracts the
// return-address/parent-FP slot offsets, the frame size, the maximum
// SP-relative store offset (the arguments region), and the fork points
// (calls bracketed by __st_fork_block_begin/__st_fork_block_end dummy
// calls, which it removes); it replaces `mov sp, fp` with the exported-set
// check of Section 5.2 and emits a *pure epilogue* replica per procedure
// for the runtime's unwinding.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace stvm {

using Word = std::int64_t;
using Addr = std::int64_t;  // word index into VM memory

inline constexpr int kNumRegs = 16;
inline constexpr int kLr = 12;
inline constexpr int kSp = 13;
inline constexpr int kFp = 14;

/// Callee-saved general registers (besides fp/sp): r4..r7.
inline constexpr int kFirstCalleeSaved = 4;
inline constexpr int kLastCalleeSaved = 7;

/// Address-space carve-up shared by the VM and the predecoder: resolved
/// call targets at or above kBuiltinBase are runtime entry points
/// (__st_*); values at or above kTrampBase flowing through a return are
/// trampoline tokens minted by restart (vm.hpp).
inline constexpr Addr kBuiltinBase = 1 << 20;
inline constexpr Addr kTrampBase = 1 << 21;

/// The steal-poll runtime entry: the predecoder gives calls to it their
/// own run-form op, which the JIT serves natively when it is a no-op.
inline constexpr const char* kPollEntry = "__st_poll";

enum class Op : std::uint8_t {
  kLi,        // li   rD, imm
  kMov,       // mov  rD, rS
  kAdd,       // add  rD, rA, rB
  kSub,       // sub  rD, rA, rB
  kMul,       // mul  rD, rA, rB
  kDiv,       // div  rD, rA, rB (traps on zero)
  kAddi,      // addi rD, rA, imm
  kSubi,      // subi rD, rA, imm
  kLd,        // ld   rD, [rA + imm]
  kSt,        // st   rS, [rA + imm]
  kCall,      // call label        (lr = pc+1; pc = label)
  kCallr,     // callr rA          (indirect call)
  kJmp,       // jmp  label
  kJr,        // jr   rA
  kBeq,       // beq  rA, rB, label
  kBne,       // bne  rA, rB, label
  kBlt,       // blt  rA, rB, label (signed)
  kBge,       // bge  rA, rB, label (signed)
  kBltu,      // bltu rA, rB, label (unsigned -- the epilogue checks)
  kBgeu,      // bgeu rA, rB, label
  kFetchAdd,  // fetchadd rD, [rA + imm], rB   (rD = old; mem += rB; atomic)
  kGetMaxE,   // getmaxe rD   (rD = this worker's max-exported sentinel)
  kHalt,      // halt (only valid in the boot shim / tests)
};

struct Instr {
  Op op{};
  int rd = 0;       // destination / source for stores
  int ra = 0;       // base / first operand
  int rb = 0;       // second operand
  Word imm = 0;     // immediate / displacement
  std::string label;  // unresolved jump/call target (empty once resolved)
  Addr target = -1;   // resolved code address
};

const char* op_name(Op op);

/// Register name for diagnostics ("r3", "lr", "sp", "fp").
std::string reg_name(int r);

}  // namespace stvm
