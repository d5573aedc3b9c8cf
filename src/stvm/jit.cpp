// x86-64 template emitter for the STVM baseline JIT (see jit.hpp for
// the execution contract and DESIGN.md §5.13 for the correctness
// argument).  Emission is two-pass: blocks are laid out once into a
// byte vector with rel32 fixups for forward branch targets, then copied
// into a fresh anonymous mapping that is sealed RX (W^X: the buffer is
// never writable and executable at the same time).
//
// Hot-path shape: consecutive blocks fall through, the per-instruction
// budget gate is one macro-fusible `sub rcx,1; jl <out-of-line>` pair,
// and every quantum/cold exit lives in an out-of-line snippet after the
// block array -- the straight-line path takes no branches at all.
// STVM calls emit a native `call` and returns re-pair it with a native
// `ret` (after checking the popped address against the block table), so
// the hardware return-address stack predicts the return-heavy
// fork/join call pattern that indirect table dispatch would mispredict.
#include "stvm/jit.hpp"

#include <cstddef>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
#define STVM_JIT_NATIVE 1
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace stvm {

bool jit_available() {
#if defined(STVM_JIT_NATIVE)
  return true;
#else
  return false;
#endif
}

#if !defined(STVM_JIT_NATIVE)

JitProgram::~JitProgram() = default;

bool JitProgram::compile(const Predecoded&, std::int64_t, std::uint64_t, Word*,
                         JitState*, std::uint64_t*) {
  return false;
}

#else  // STVM_JIT_NATIVE

namespace {

// Host register numbers (x86-64 encoding).
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsp = 4, kRbp = 5,
              kRsi = 6, kRdi = 7, kR8 = 8;

// Condition codes (tttn) for jcc.
constexpr int kCcB = 0x2, kCcAE = 0x3, kCcE = 0x4, kCcNE = 0x5, kCcL = 0xC,
              kCcGE = 0xD;

/// STVM register -> host register; -1 = lives only in the architectural
/// register file (reached through JitState::regs).
int host_of(int vr) {
  if (vr >= 0 && vr <= 7) return kR8 + vr;  // r0..r7 -> r8..r15
  if (vr == kLr) return kRbp;
  if (vr == kSp) return kRsi;
  if (vr == kFp) return kRdi;
  return -1;
}

bool fits_i32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

static_assert(offsetof(JitState, regs) == 0, "layout baked into emitted code");
static_assert(offsetof(JitState, budget) == 8, "layout baked into emitted code");
static_assert(offsetof(JitState, pc) == 16, "layout baked into emitted code");
static_assert(offsetof(JitState, exit_cold) == 24, "layout baked into emitted code");
static_assert(offsetof(JitState, maxe) == 32, "layout baked into emitted code");
static_assert(offsetof(JitState, rsp_entry) == 40, "layout baked into emitted code");
static_assert(offsetof(JitState, slot) == 48, "layout baked into emitted code");
static_assert(offsetof(JitState, last) == 56, "layout baked into emitted code");
static_assert(offsetof(JitState, quantum) == 64, "layout baked into emitted code");
static_assert(offsetof(JitState, poll) == 72, "layout baked into emitted code");
static_assert(offsetof(JitState, first) == 80, "layout baked into emitted code");
static_assert(offsetof(JitState, wraps) == 88, "layout baked into emitted code");
static_assert(offsetof(JitSlot, regs) == 0 && offsetof(JitSlot, pc) == 8 &&
                  offsetof(JitSlot, poll) == 12 && offsetof(JitSlot, maxe) == 16 &&
                  sizeof(JitSlot) == 24,
              "layout baked into emitted code");

class Emitter {
 public:
  std::vector<std::uint8_t> out;
  struct Fixup {
    std::size_t pos;  ///< offset of the rel32 to patch
    std::int32_t slot;
  };
  std::vector<Fixup> fixups;
  /// A jcc/jmp rel32 whose target is the (not yet emitted) out-of-line
  /// exit snippet for (pc, cold?).
  struct ExitFixup {
    std::size_t pos;
    std::int64_t pc;
    bool cold;
  };
  std::vector<ExitFixup> exit_fixups;

  void u8(std::uint8_t b) { out.push_back(b); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void rex(int w, int reg, int idx, int rm) {
    u8(static_cast<std::uint8_t>(0x40 | (w << 3) | ((reg >> 3) << 2) |
                                 ((idx >> 3) << 1) | (rm >> 3)));
  }
  void modrm(int mod, int reg, int rm) {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }

  /// [base + disp] operand.  rm encoding 4 (rsp/r12) escapes to a SIB
  /// byte, and mod0 with rm 5 (rbp/r13) means rip-relative -- both get
  /// the longer form so any base register is legal (STVM r4 maps to r12).
  void mem(int reg, int base, std::int32_t disp) {
    const bool sib = (base & 7) == 4;
    if (disp == 0 && (base & 7) != kRbp) {
      modrm(0, reg, base);
      if (sib) u8(0x24);
    } else if (disp >= -128 && disp <= 127) {
      modrm(1, reg, base);
      if (sib) u8(0x24);
      u8(static_cast<std::uint8_t>(disp));
    } else {
      modrm(2, reg, base);
      if (sib) u8(0x24);
      u32(static_cast<std::uint32_t>(disp));
    }
  }

  // mov dst, src
  void mov_rr(int dst, int src) { rex(1, src, 0, dst); u8(0x89); modrm(3, src, dst); }
  // mov dst, [base + disp]
  void mov_r_mem(int dst, int base, std::int32_t disp) {
    rex(1, dst, 0, base); u8(0x8B); mem(dst, base, disp);
  }
  // mov [base + disp], src
  void mov_mem_r(int base, std::int32_t disp, int src) {
    rex(1, src, 0, base); u8(0x89); mem(src, base, disp);
  }
  // mov dword [base + disp], src32
  void mov_mem32_r(int base, std::int32_t disp, int src) {
    rex(0, src, 0, base); u8(0x89); mem(src, base, disp);
  }
  // movsxd dst, dword [base + disp]
  void movsxd_r_mem(int dst, int base, std::int32_t disp) {
    rex(1, dst, 0, base); u8(0x63); mem(dst, base, disp);
  }
  // mov dst, [base + idx*8]
  void mov_r_sib(int dst, int base, int idx) {
    rex(1, dst, idx, base); u8(0x8B); modrm(0, dst, 4);
    u8(static_cast<std::uint8_t>(0xC0 | ((idx & 7) << 3) | (base & 7)));
  }
  // mov [base + idx*8], src
  void mov_sib_r(int base, int idx, int src) {
    rex(1, src, idx, base); u8(0x89); modrm(0, src, 4);
    u8(static_cast<std::uint8_t>(0xC0 | ((idx & 7) << 3) | (base & 7)));
  }
  // add [base + idx*8], src
  void add_sib_r(int base, int idx, int src) {
    rex(1, src, idx, base); u8(0x01); modrm(0, src, 4);
    u8(static_cast<std::uint8_t>(0xC0 | ((idx & 7) << 3) | (base & 7)));
  }
  // movabs dst, imm64 / the short sign-extended form when it fits
  void mov_ri(int dst, std::int64_t imm) {
    if (fits_i32(imm)) {
      rex(1, 0, 0, dst); u8(0xC7); modrm(3, 0, dst);
      u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(imm)));
    } else {
      rex(1, 0, 0, dst); u8(static_cast<std::uint8_t>(0xB8 | (dst & 7)));
      u64(static_cast<std::uint64_t>(imm));
    }
  }
  // mov qword [base + disp], imm32 (sign-extended)
  void mov_mem_i32(int base, std::int32_t disp, std::int32_t imm) {
    rex(1, 0, 0, base); u8(0xC7); mem(0, base, disp);
    u32(static_cast<std::uint32_t>(imm));
  }
  // lea dst, [base + disp]
  void lea(int dst, int base, std::int32_t disp) {
    rex(1, dst, 0, base); u8(0x8D); mem(dst, base, disp);
  }
  // cmp r, [base + disp]
  void cmp_r_mem(int r, int base, std::int32_t disp) {
    rex(1, r, 0, base); u8(0x3B); mem(r, base, disp);
  }
  // add/sub/cmp dst, src (register forms: 01 / 29 / 39)
  void alu_rr(std::uint8_t op, int dst, int src) {
    rex(1, src, 0, dst); u8(op); modrm(3, src, dst);
  }
  // add/sub/cmp r, imm32 (81 /0, /5, /7)
  void alu_ri(int ext, int r, std::int32_t imm) {
    rex(1, 0, 0, r); u8(0x81); modrm(3, ext, r);
    u32(static_cast<std::uint32_t>(imm));
  }
  // add/sub/cmp r, imm8 (83 /ext, sign-extended)
  void alu_ri8(int ext, int r, std::int8_t imm) {
    rex(1, 0, 0, r); u8(0x83); modrm(3, ext, r); u8(static_cast<std::uint8_t>(imm));
  }
  // cmp r, imm8 (83 /7)
  void cmp_ri8(int r, std::int8_t imm) { alu_ri8(7, r, imm); }
  // imul dst, src
  void imul_rr(int dst, int src) {
    rex(1, dst, 0, src); u8(0x0F); u8(0xAF); modrm(3, dst, src);
  }
  void inc_r(int r) { rex(1, 0, 0, r); u8(0xFF); modrm(3, 0, r); }
  // add/sub/cmp qword [base + disp], imm8 (83 /ext; the histogram bump
  // is add [base], 1)
  void alu_mem_i8(int ext, int base, std::int32_t disp, std::int8_t imm) {
    rex(1, 0, 0, base); u8(0x83); mem(ext, base, disp); u8(static_cast<std::uint8_t>(imm));
  }
  void cqo() { u8(0x48); u8(0x99); }
  void idiv_r(int r) { rex(1, 0, 0, r); u8(0xF7); modrm(3, 7, r); }
  void jcc8(int cc, std::int8_t off) {
    u8(static_cast<std::uint8_t>(0x70 | cc)); u8(static_cast<std::uint8_t>(off));
  }
  /// Short forward jcc; returns the offset patch_jcc8 resolves.
  std::size_t jcc8_fwd(int cc) {
    jcc8(cc, 0);
    return out.size();
  }
  /// Points the jcc8_fwd ending at `end` at the current position.
  void patch_jcc8(std::size_t end) {
    out[end - 1] = static_cast<std::uint8_t>(out.size() - end);
  }
  /// Near forward jcc; returns the offset patch_rel32 resolves.
  std::size_t jcc32_fwd(int cc) {
    u8(0x0F); u8(static_cast<std::uint8_t>(0x80 | cc)); u32(0);
    return out.size();
  }
  /// Points the rel32 ending at `end` at the current position.
  void patch_rel32(std::size_t end) {
    const auto rel = static_cast<std::uint32_t>(out.size() - end);
    std::memcpy(out.data() + end - 4, &rel, 4);
  }
  void jmp32_to(std::size_t target) {
    u8(0xE9);
    u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(
        static_cast<std::int64_t>(target) - static_cast<std::int64_t>(out.size()) - 4)));
  }
  void jmp32_to_slot(std::int32_t slot) {
    u8(0xE9); fixups.push_back({out.size(), slot}); u32(0);
  }
  void jcc32_to_slot(int cc, std::int32_t slot) {
    u8(0x0F); u8(static_cast<std::uint8_t>(0x80 | cc));
    fixups.push_back({out.size(), slot}); u32(0);
  }
  // call rel32 to a block head (kCall: pairs with the native ret below)
  void call32_to_slot(std::int32_t slot) {
    u8(0xE8); fixups.push_back({out.size(), slot}); u32(0);
  }
  // jcc rel32 to the out-of-line exit snippet for (pc, cold?)
  void jcc32_to_exit(int cc, std::int64_t pc, bool cold) {
    u8(0x0F); u8(static_cast<std::uint8_t>(0x80 | cc));
    exit_fixups.push_back({out.size(), pc, cold}); u32(0);
  }
  // jmp [rdx + rax*8] -- indirect dispatch through the block table
  void jmp_table() { u8(0xFF); u8(0x24); u8(0xC2); }
  // call [rdx + rax*8] (kCallr: the pushed return address is the next
  // block's head, so a later paired `ret` predicts through the RAS)
  void call_table() { u8(0xFF); u8(0x14); u8(0xC2); }
  void jmp_r(int r) {
    if (r >= 8) u8(0x41);
    u8(0xFF);
    modrm(3, 4, r);
  }
  void push_r(int r) { if (r >= 8) u8(0x41); u8(static_cast<std::uint8_t>(0x50 | (r & 7))); }
  void pop_r(int r) { if (r >= 8) u8(0x41); u8(static_cast<std::uint8_t>(0x58 | (r & 7))); }
  void push_i8(std::int8_t v) { u8(0x6A); u8(static_cast<std::uint8_t>(v)); }
  void ret() { u8(0xC3); }
};

}  // namespace

JitProgram::~JitProgram() {
  if (buf_ != nullptr) ::munmap(buf_, buf_size_);
}

bool JitProgram::compile(const Predecoded& pre, std::int64_t code_size,
                         std::uint64_t mem_words, Word* mem_base, JitState* state,
                         std::uint64_t* op_retired) {
  // The bounds check compares against a sign-extended imm32; a span that
  // does not fit delegates the whole module to the switch engine.
  if (mem_words == 0 || mem_words - 1 > 0x7FFFFFFFull ||
      code_size + 1 != static_cast<std::int64_t>(pre.rcode.size()) ||
      code_size >= 0x7FFFFFFF) {
    return false;
  }
  const std::size_t nslots = pre.rcode.size();
  const std::int32_t mspan = static_cast<std::int32_t>(mem_words - 1);
  blocks_.assign(nslots, 0);  // data() is embedded below; fill after layout
  cold_.assign(static_cast<std::size_t>(code_size), 0);
  cold_slots_ = 0;

  const std::int64_t state_addr = reinterpret_cast<std::int64_t>(state);
  const std::int64_t table_addr = reinterpret_cast<std::int64_t>(blocks_.data());

  Emitter e;

  // ---- prologue (the enter() entry point, offset 0) --------------------
  // Saves the host callee-saves, records rsp (exit stubs restore it, so
  // any call/ret imbalance a stretch accumulates is discarded), pushes a
  // zero guard word -- a `ret`-pairing check against it can never match a
  // block address, so returns can never pop past the entry frame -- then
  // loads the architectural registers and dispatches to block[state->pc].
  const int kSaves[] = {kRbx, kRbp, 12, 13, 14, 15};
  for (int r : kSaves) e.push_r(r);
  e.mov_ri(kRax, state_addr);
  e.mov_mem_r(kRax, 40, kRsp);  // rsp_entry
  e.push_i8(0);                 // return-pairing guard
  e.mov_r_mem(kRcx, kRax, 8);   // budget
  e.mov_r_mem(kRdx, kRax, 0);   // regs
  for (int vr = 0; vr <= 7; ++vr) e.mov_r_mem(kR8 + vr, kRdx, vr * 8);
  e.mov_r_mem(kRbp, kRdx, kLr * 8);
  e.mov_r_mem(kRsi, kRdx, kSp * 8);
  e.mov_r_mem(kRdi, kRdx, kFp * 8);
  e.mov_ri(kRbx, reinterpret_cast<std::int64_t>(mem_base));
  e.mov_r_mem(kRax, kRax, 16);  // pc
  e.mov_ri(kRdx, table_addr);
  e.jmp_table();

  // ---- exit stubs (rax = exit pc) --------------------------------------
  // Both restore rsp (discarding native call frames and the guard) and
  // spill the architectural state back.  The budget gate and the cold
  // checks run *after* the speculative `sub rcx,1`, so both stubs' first
  // instruction refunds the unexecuted instruction; bare-cold blocks
  // never decrement and jump one instruction in (cold_noinc).
  std::size_t quantum_stub = 0, cold_stub = 0, cold_noinc = 0;
  for (int cold = 0; cold <= 1; ++cold) {
    const std::size_t inc_off = e.out.size();
    e.inc_r(kRcx);
    const std::size_t body = e.out.size();
    e.mov_ri(kRdx, state_addr);
    e.mov_r_mem(kRsp, kRdx, 40);    // unwind native call frames
    e.mov_mem_r(kRdx, 16, kRax);    // pc
    e.mov_mem_r(kRdx, 8, kRcx);     // budget
    e.mov_r_mem(kRax, kRdx, 0);     // regs
    for (int vr = 0; vr <= 7; ++vr) e.mov_mem_r(kRax, vr * 8, kR8 + vr);
    e.mov_mem_r(kRax, kLr * 8, kRbp);
    e.mov_mem_r(kRax, kSp * 8, kRsi);
    e.mov_mem_r(kRax, kFp * 8, kRdi);
    std::size_t to_tail = 0;
    if (cold == 0) {
      // Round handoff: record the pc in the slot (the last slot's too --
      // the host reads an exiting worker's pc from state->pc), make the
      // next slot current and enter its worker with a fresh quantum --
      // the prologue's tail, minus the host.  After the last slot, a
      // batch with wraps left starts its next round at state->first;
      // otherwise the stretch returns.
      e.mov_r_mem(kRax, kRdx, 48);  // slot
      e.mov_r_mem(kRcx, kRdx, 16);  // the budget (0) is stored: rcx = pc
      e.mov_mem32_r(kRax, 8, kRcx);  // slot->pc
      e.cmp_r_mem(kRax, kRdx, 56);  // slot vs last
      e.lea(kRax, kRax, static_cast<std::int32_t>(sizeof(JitSlot)));  // next (flags kept)
      const std::size_t to_handoff = e.jcc8_fwd(kCcNE);
      e.alu_mem_i8(7, kRdx, 88, 0);  // wraps left?
      to_tail = e.jcc32_fwd(kCcE);
      e.alu_mem_i8(5, kRdx, 88, 1);
      e.mov_r_mem(kRax, kRdx, 80);  // first
      e.patch_jcc8(to_handoff);
      e.mov_mem_r(kRdx, 48, kRax);  // state->slot = next
      e.mov_r_mem(kRcx, kRax, 0);   // next regs
      e.mov_mem_r(kRdx, 0, kRcx);
      e.mov_r_mem(kRbp, kRax, 16);  // next maxe (rbp is free until reloaded)
      e.mov_mem_r(kRdx, 32, kRbp);
      e.movsxd_r_mem(kRbp, kRax, 12);  // next poll word
      e.mov_mem_r(kRdx, 72, kRbp);
      e.push_i8(0);                 // fresh return-pairing guard
      for (int vr = 0; vr <= 7; ++vr) e.mov_r_mem(kR8 + vr, kRcx, vr * 8);
      e.mov_r_mem(kRbp, kRcx, kLr * 8);
      e.mov_r_mem(kRsi, kRcx, kSp * 8);
      e.mov_r_mem(kRdi, kRcx, kFp * 8);
      e.mov_r_mem(kRcx, kRdx, 64);  // quantum
      e.movsxd_r_mem(kRax, kRax, 8);  // next pc
      e.mov_ri(kRdx, table_addr);
      e.jmp_table();
      e.patch_rel32(to_tail);
    }
    e.mov_mem_i32(kRdx, 24, cold);  // exit_cold
    for (int i = 5; i >= 0; --i) e.pop_r(kSaves[i]);
    e.ret();
    if (cold == 0) {
      quantum_stub = inc_off;
    } else {
      cold_stub = inc_off;
      cold_noinc = body;
    }
  }

  auto exit_to = [&](std::size_t stub, std::int64_t pc) {
    e.mov_ri(kRax, pc);
    e.jmp32_to(stub);
  };
  // Budget gate: every translated instruction spends its budget *before*
  // any side effect, exactly like the switch engine.  `sub; jl` macro-
  // fuses, the not-taken fall-through is free, and the refund on the
  // exit path keeps "budget exhausted leaves the pc unexecuted" exact.
  auto budget_gate = [&](std::int64_t pc) {
    e.alu_ri8(5, kRcx, 1);
    e.jcc32_to_exit(kCcL, pc, /*cold=*/false);
  };
  // Conditional cold exit: taken when cc_fail holds (checks run after
  // the budget decrement, so the snippet targets the refunding stub).
  auto cold_if = [&](int cc_fail, std::int64_t pc) {
    e.jcc32_to_exit(cc_fail, pc, /*cold=*/true);
  };
  // Architectural register access for the homeless registers (STVM
  // r8..r11/r15): through state->regs.  dst is rax or rdx.
  auto load_vr = [&](int vr, int dst) {
    const int h = host_of(vr);
    if (h >= 0) {
      e.mov_rr(dst, h);
    } else {
      e.mov_ri(dst, state_addr);
      e.mov_r_mem(dst, dst, 0);
      e.mov_r_mem(dst, dst, vr * 8);
    }
  };
  // Store rax into vr; clobbers rdx on the homeless path.
  auto store_vr = [&](int vr) {
    const int h = host_of(vr);
    if (h >= 0) {
      e.mov_rr(h, kRax);
    } else {
      e.mov_ri(kRdx, state_addr);
      e.mov_r_mem(kRdx, kRdx, 0);
      e.mov_mem_r(kRdx, vr * 8, kRax);
    }
  };
  // Histogram bump, emitted only when counting (clobbers rdx, keeps rax).
  auto count = [&](RunOp h) {
    if (op_retired == nullptr) return;
    e.mov_ri(kRdx, reinterpret_cast<std::int64_t>(op_retired +
                                                  static_cast<std::size_t>(h)));
    e.alu_mem_i8(0, kRdx, 0, 1);
  };
  // Leaves the checked word address in rax (cold-exits this instruction
  // on an out-of-range address; clobbers rdx).
  auto address = [&](int base_vr, Word imm, std::int64_t pc) {
    const int h = host_of(base_vr);
    if (h >= 0 && fits_i32(imm)) {
      e.lea(kRax, h, static_cast<std::int32_t>(imm));
    } else {
      load_vr(base_vr, kRax);
      if (fits_i32(imm)) {
        e.alu_ri(0, kRax, static_cast<std::int32_t>(imm));
      } else {
        e.mov_ri(kRdx, imm);
        e.alu_rr(0x01, kRax, kRdx);
      }
    }
    // addr_ok(a): (a - 1) unsigned-below (mem_words - 1)
    e.lea(kRdx, kRax, -1);
    e.alu_ri(7, kRdx, mspan);
    cold_if(kCcAE, pc);
  };
  auto bare_cold = [&](std::int64_t pc) {
    exit_to(cold_noinc, pc);
    if (pc < code_size) {
      cold_[static_cast<std::size_t>(pc)] = 1;
      ++cold_slots_;
    }
  };
  auto slot_ok = [&](std::int32_t t) {
    return t >= 0 && t < static_cast<std::int32_t>(nslots);
  };

  std::vector<std::size_t> block_off(nslots);
  for (std::size_t i = 0; i < nslots; ++i) {
    block_off[i] = e.out.size();
    const RInstr& r = pre.rcode[i];
    const std::int64_t pc = static_cast<std::int64_t>(i);
    const RunOp h = static_cast<RunOp>(r.h);
    switch (h) {
      case RunOp::kBadPc:  // the sentinel slot: architectural pc fell off
      case RunOp::kCallBuiltin:
      case RunOp::kHalt:
        bare_cold(pc);
        break;
      case RunOp::kLi:
        budget_gate(pc);
        count(h);
        if (host_of(r.d) >= 0) {
          e.mov_ri(host_of(r.d), r.imm);
        } else {
          e.mov_ri(kRax, r.imm);
          store_vr(r.d);
        }
        break;
      case RunOp::kMov:
        budget_gate(pc);
        count(h);
        if (host_of(r.d) >= 0 && host_of(r.a) >= 0) {
          e.mov_rr(host_of(r.d), host_of(r.a));
        } else {
          load_vr(r.a, kRax);
          store_vr(r.d);
        }
        break;
      case RunOp::kAdd:
      case RunOp::kSub:
      case RunOp::kMul: {
        budget_gate(pc);
        count(h);
        load_vr(r.a, kRax);
        int src = host_of(r.b);
        if (src < 0) {
          load_vr(r.b, kRdx);
          src = kRdx;
        }
        if (h == RunOp::kMul) {
          e.imul_rr(kRax, src);
        } else {
          e.alu_rr(h == RunOp::kAdd ? 0x01 : 0x29, kRax, src);
        }
        store_vr(r.d);
        break;
      }
      case RunOp::kDiv: {
        const int hb = host_of(r.b);
        if (hb < 0) {  // divisor must outlive both scratch registers
          bare_cold(pc);
          break;
        }
        budget_gate(pc);
        // Zero and -1 divisors go to the interpreter: zero for its exact
        // fail() message, -1 so the INT64_MIN/-1 overflow case behaves
        // byte-for-byte like the interpreter's C++ division rather than
        // raising idiv's #DE here.
        e.cmp_ri8(hb, 0);
        cold_if(kCcE, pc);
        e.cmp_ri8(hb, -1);
        cold_if(kCcE, pc);
        count(h);
        load_vr(r.a, kRax);
        e.cqo();
        e.idiv_r(hb);
        store_vr(r.d);
        break;
      }
      case RunOp::kAddi:
      case RunOp::kSubi: {
        budget_gate(pc);
        count(h);
        const std::int64_t disp = h == RunOp::kAddi ? r.imm : -r.imm;
        if (host_of(r.d) >= 0 && host_of(r.a) >= 0 && fits_i32(r.imm) &&
            fits_i32(disp)) {
          e.lea(host_of(r.d), host_of(r.a), static_cast<std::int32_t>(disp));
        } else {
          load_vr(r.a, kRax);
          if (fits_i32(r.imm)) {
            e.alu_ri(h == RunOp::kAddi ? 0 : 5, kRax,
                     static_cast<std::int32_t>(r.imm));
          } else {
            e.mov_ri(kRdx, r.imm);
            e.alu_rr(h == RunOp::kAddi ? 0x01 : 0x29, kRax, kRdx);
          }
          store_vr(r.d);
        }
        break;
      }
      case RunOp::kLd:
        budget_gate(pc);
        address(r.a, r.imm, pc);
        count(h);
        e.mov_r_sib(kRax, kRbx, kRax);
        store_vr(r.d);
        break;
      case RunOp::kSt:
        budget_gate(pc);
        address(r.a, r.imm, pc);
        count(h);
        if (host_of(r.d) >= 0) {
          e.mov_sib_r(kRbx, kRax, host_of(r.d));
        } else {
          load_vr(r.d, kRdx);
          e.mov_sib_r(kRbx, kRax, kRdx);
        }
        break;
      case RunOp::kFetchAdd: {
        // rd = old value, then mem += rb.  When d == b the addend is the
        // *old slot value* (rd was just clobbered with it) -- mirror
        // exec_instr's aliasing exactly.
        if (host_of(r.b) < 0 && r.b != r.d) {
          bare_cold(pc);  // no third scratch for a homeless addend
          break;
        }
        budget_gate(pc);
        address(r.a, r.imm, pc);
        count(h);
        e.mov_r_sib(kRdx, kRbx, kRax);  // old
        if (r.d == r.b) {
          e.add_sib_r(kRbx, kRax, kRdx);
        } else {
          e.add_sib_r(kRbx, kRax, host_of(r.b));
        }
        if (host_of(r.d) >= 0) {
          e.mov_rr(host_of(r.d), kRdx);
        } else {
          e.mov_rr(kRax, kRdx);
          store_vr(r.d);
        }
        break;
      }
      case RunOp::kCall:  // in-module target (builtins became kCallBuiltin/kPoll)
        if (!slot_ok(r.t)) {
          bare_cold(pc);
          break;
        }
        budget_gate(pc);
        count(h);
        e.mov_ri(kRbp, pc + 1);  // lr
        // Native call: pushes the head of block pc+1, which the matching
        // `jr lr` re-pairs with a native ret (RAS-predicted).
        e.call32_to_slot(r.t);
        break;
      case RunOp::kJmp:
        if (!slot_ok(r.t)) {
          bare_cold(pc);
          break;
        }
        budget_gate(pc);
        count(h);
        e.jmp32_to_slot(r.t);
        break;
      case RunOp::kCallr:
      case RunOp::kJr:
        // Dynamic targets: in-code targets dispatch through the block
        // table; anything else (builtins, trampoline tokens, wild
        // addresses -- all >= code_size unsigned, negatives included) is
        // cold and re-runs under the oracle, which performs the builtin,
        // takes the trampoline, or fails with the canonical message.
        budget_gate(pc);
        load_vr(r.a, kRax);
        e.alu_ri(7, kRax, static_cast<std::int32_t>(code_size));
        cold_if(kCcAE, pc);
        count(h);
        e.mov_ri(kRdx, table_addr);
        if (h == RunOp::kCallr) {
          e.mov_ri(kRbp, pc + 1);  // lr
          e.call_table();
        } else {
          // Return pairing: when the native return address on the stack
          // is this jump's block target, consume it with a real `ret` so
          // the RAS predicts it; otherwise leave the stack balanced and
          // take an indirect jump.  The entry guard word (0) guarantees
          // the match can never succeed past the entry frame.
          e.mov_r_sib(kRdx, kRdx, kRax);  // native target block
          e.pop_r(kRax);
          e.alu_rr(0x39, kRax, kRdx);  // cmp popped, target
          e.push_r(kRax);              // rebalance (flags preserved)
          e.jcc8(kCcNE, 1);            // mismatched: skip the ret
          e.ret();
          e.jmp_r(kRdx);
        }
        break;
      case RunOp::kBeq:
      case RunOp::kBne:
      case RunOp::kBlt:
      case RunOp::kBge:
      case RunOp::kBltu:
      case RunOp::kBgeu: {
        if (!slot_ok(r.t)) {
          bare_cold(pc);
          break;
        }
        budget_gate(pc);
        count(h);
        if (host_of(r.a) >= 0 && host_of(r.b) >= 0) {
          e.alu_rr(0x39, host_of(r.a), host_of(r.b));
        } else {
          load_vr(r.a, kRax);
          load_vr(r.b, kRdx);
          e.alu_rr(0x39, kRax, kRdx);
        }
        static constexpr int kCc[] = {kCcE, kCcNE, kCcL, kCcGE, kCcB, kCcAE};
        e.jcc32_to_slot(kCc[static_cast<int>(h) - static_cast<int>(RunOp::kBeq)],
                        r.t);
        break;  // fall through to block pc+1
      }
      case RunOp::kPoll: {
        // A no-op poll stays native (DESIGN.md §5.13).  The poll word says
        // whether __st_poll would do anything: < 0, a steal request is
        // pending; > 0, the topmost exported frame's return-address slot,
        // read live because native epilogues zero it -- 0 there means
        // shrink has a retired frame to pop.  Either case exits to the
        // host, which runs the builtin; otherwise the call changed only lr.
        budget_gate(pc);
        e.mov_ri(kRax, state_addr);
        e.mov_r_mem(kRax, kRax, 72);  // poll word
        e.cmp_ri8(kRax, 0);
        const std::size_t noop = e.jcc8_fwd(kCcE);
        cold_if(kCcL, pc);
        e.mov_r_sib(kRax, kRbx, kRax);
        e.cmp_ri8(kRax, 0);
        cold_if(kCcE, pc);
        e.patch_jcc8(noop);
        count(h);
        e.mov_ri(kRbp, pc + 1);  // lr, as exec_instr's builtin call sets it
        break;  // fall through to block pc+1
      }
      case RunOp::kGetMaxE:
        // The exported set is invariant while native code runs (it only
        // changes inside builtins / trampoline takes / steal service, all
        // of which are cold), so the sentinel is a per-enter cached load.
        budget_gate(pc);
        count(h);
        e.mov_ri(kRax, state_addr);
        e.mov_r_mem(kRax, kRax, 32);  // maxe
        store_vr(r.d);
        break;
      default:  // kCount is not a handler
        bare_cold(pc);
        break;
    }
  }

  // ---- out-of-line exit snippets ---------------------------------------
  // One `mov rax, pc; jmp stub` per (block, exit kind), placed after the
  // block array so the blocks themselves never take a branch on the hot
  // path.  Requests for the same block are adjacent in emission order,
  // so a two-slot memo dedupes the block's cold checks into one snippet.
  {
    std::int64_t memo_pc = -1;
    std::size_t memo_off[2] = {0, 0};
    bool memo_set[2] = {false, false};
    for (const auto& f : e.exit_fixups) {
      const int kind = f.cold ? 1 : 0;
      if (f.pc != memo_pc) {
        memo_pc = f.pc;
        memo_set[0] = memo_set[1] = false;
      }
      if (!memo_set[kind]) {
        memo_off[kind] = e.out.size();
        memo_set[kind] = true;
        exit_to(f.cold ? cold_stub : quantum_stub, f.pc);
      }
      const std::int32_t rel = static_cast<std::int32_t>(
          static_cast<std::int64_t>(memo_off[kind]) -
          static_cast<std::int64_t>(f.pos) - 4);
      std::memcpy(e.out.data() + f.pos, &rel, 4);
    }
  }

  // Patch forward rel32s now that every block's offset is known.
  for (const auto& f : e.fixups) {
    const std::int32_t rel =
        static_cast<std::int32_t>(static_cast<std::int64_t>(block_off[f.slot]) -
                                  static_cast<std::int64_t>(f.pos) - 4);
    std::memcpy(e.out.data() + f.pos, &rel, 4);
  }

  // Seal: copy into a fresh mapping, then flip it RX (never RWX).
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t psz = page > 0 ? static_cast<std::size_t>(page) : 4096;
  buf_size_ = (e.out.size() + psz - 1) / psz * psz;
  void* p = ::mmap(nullptr, buf_size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    buf_size_ = 0;
    return false;
  }
  std::memcpy(p, e.out.data(), e.out.size());
  if (::mprotect(p, buf_size_, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(p, buf_size_);
    buf_size_ = 0;
    return false;
  }
  buf_ = p;
  code_bytes_ = e.out.size();
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(p);
  for (std::size_t i = 0; i < nslots; ++i) blocks_[i] = base + block_off[i];
  entry_ = reinterpret_cast<void (*)()>(base);
  return true;
}

#endif  // STVM_JIT_NATIVE

}  // namespace stvm
