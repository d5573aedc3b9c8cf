// The STVM virtual machine: N virtual workers sharing one memory, each
// with a physical stack, executing postprocessed STVM code.  The runtime
// primitives perform the paper's actual frame surgery:
//
//   suspend (Section 3.4/Figure 6) -- unwinds frames by *executing their
//     pure epilogues* (restoring callee-saves and FP while leaving SP in
//     place), counting fork points found in the descriptor table, and
//     exporting every unwound frame into the worker's exported-set heap.
//   restart (Figure 7) -- patches the chain-bottom frame's return-address
//     and parent-FP slots so it "looks as if it were called from" the
//     restarter, saving the restarter's callee-saved registers so the
//     *invalid frame* problem (Section 3.4) is fixed exactly as in the
//     paper: they are restored when control returns through the patched
//     slot (realized as a trampoline token the VM intercepts).
//   retirement -- the postprocessed epilogues zero the return-address slot
//     of frames that finish below an exported frame; shrink pops retired
//     maxima off the exported heap and raises SP (Section 5.2).
//   migration (Figures 9/10/12) -- the polling steal protocol with LTC:
//     a victim's poll hands out its readyq tail, or pulls the bottom-most
//     thread out of its logical stack with the two-suspend + restart
//     dance of Figure 9.
//
// Workers are stepped round-robin with a configurable quantum, making
// every concurrent schedule deterministic and replayable in tests.  The
// default engine is the JIT (jit.hpp), which runs a round of busy
// workers in one native entry; the portable switch interpreter stays as
// its fallback, its cold-op seam and the differential oracle.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "stvm/jit.hpp"
#include "stvm/module.hpp"
#include "stvm/postproc.hpp"
#include "stvm/predecode.hpp"
#include "util/max_heap.hpp"
#include "util/metrics.hpp"
#include "util/owner_deque.hpp"
#include "util/rng.hpp"
#include "util/sched_log.hpp"
#include "util/trace_ring.hpp"

namespace stvm {

struct VmError : std::runtime_error {
  explicit VmError(const std::string& m) : std::runtime_error(m) {}
};

struct VmConfig {
  unsigned workers = 1;
  std::size_t stack_words = 16 * 1024;  ///< per-worker physical stack
  std::size_t heap_words = 1 << 20;
  int quantum = 64;            ///< instructions per worker per round
  std::uint64_t steal_seed = 1;
  std::uint64_t max_steps = 500'000'000;  ///< runaway guard
  /// Check after every instruction that SP is inside the worker's stack
  /// segment and at-or-above the top of every live exported frame (the
  /// Theorem 4 safety property, enforced dynamically).  For tests.
  /// Runs on the switch engine, which has the per-instruction hook.
  bool validate = false;
  /// Execution engine.  kEnv reads ST_STVM_DISPATCH (switch|jit, default
  /// jit); both engines are architecturally identical -- same results,
  /// print streams, VmStats, instruction counts and quantum interleaving
  /// -- and differentially fuzzed against each other
  /// (docs/OBSERVABILITY.md).  kJit falls back to kSwitch cleanly when
  /// native emission is unavailable (non-x86-64 host, validate mode,
  /// compile failure).
  enum class Dispatch { kEnv, kSwitch, kJit };
  Dispatch dispatch = Dispatch::kEnv;
  /// Force the per-opcode retirement histogram on (it is otherwise
  /// enabled only when ST_METRICS/ST_STATS observability is active).
  bool count_opcodes = false;
};

/// The STVM's counter table, in VmStats field order: X(field), whose name
/// is also its key in metrics_json and the ST_STATS line.  The struct, its
/// == and both renderers are generated from it; both engines must agree
/// on every row.
#define ST_VM_COUNTERS(X) \
  X(instructions)         \
  X(suspends)             \
  X(restarts)             \
  X(resumes)              \
  X(steals_served)        \
  X(steals_rejected)      \
  X(frames_unwound)       \
  X(shrink_reclaimed)     \
  X(retired_marks_seen)   \
  X(trampolines_taken)

struct VmStats {
#define ST_VM_COUNTER_FIELD(field) std::uint64_t field = 0;
  ST_VM_COUNTERS(ST_VM_COUNTER_FIELD)
#undef ST_VM_COUNTER_FIELD

  bool operator==(const VmStats&) const = default;

  /// Calls f(key, value) for every counter, in table order (the order of
  /// metrics_json's "counters" object and of the ST_STATS line).
  template <class F>
  void for_each(F&& f) const {
#define ST_VM_COUNTER_VISIT(field) f(#field, field);
    ST_VM_COUNTERS(ST_VM_COUNTER_VISIT)
#undef ST_VM_COUNTER_VISIT
  }
};

class Vm {
 public:
  /// Links a postprocessed module: lays code at address 0, resolves
  /// labels and runtime entry points, installs the descriptor table.
  Vm(const PostprocResult& program, VmConfig cfg = {});

  /// Flushes the frame-surgery trace ring into the process sink and
  /// honours ST_STATS (docs/OBSERVABILITY.md).
  ~Vm();

  /// Runs `entry(args...)` on worker 0 (other workers start idle and pull
  /// work via the steal protocol).  Returns the entry's r0.
  Word run(const std::string& entry, const std::vector<Word>& args = {});

  /// Values printed via __st_print, in emission order.
  const std::vector<Word>& output() const { return output_; }

  const VmStats& stats() const { return stats_; }
  const DescriptorTable& descriptors() const { return table_; }

  /// Frame-surgery event ring (suspend patch / restart patch / shrink /
  /// migrate); the VM is single-threaded, so one ring serves all virtual
  /// workers and records carry the worker index.
  const stu::TraceRing& trace_ring() const { return trace_; }

  /// Exported-set size of a worker (tests/diagnostics).
  std::size_t exported_count(unsigned w) const { return workers_[w].exported.size(); }

  /// Logical-stack introspection: walks every worker's frame chain via
  /// the procedure-descriptor table (the same walk count_forks uses) and
  /// renders the logical thread tree with the Section-5 classification --
  /// E = exported frame (live, continuable from elsewhere), R = retired
  /// (return-address slot zeroed, awaiting shrink), X = extended SP
  /// extents.  Appended to deadlock errors and available to crash dumps.
  std::string dump_logical_stacks() const;

  /// This VM's section of the ST_METRICS snapshot (VmStats counters,
  /// per-worker E/R/X set sizes, unwind-depth histogram, per-opcode
  /// retirement counts).
  std::string metrics_json() const;

  /// Per-handler retired-dispatch counts, indexed by RunOp.  Populated
  /// when VmConfig::count_opcodes or ST_METRICS/ST_STATS is on.  Every
  /// handler retires one architectural instruction, so when counting the
  /// counts sum to stats().instructions.
  const std::array<std::uint64_t, kNumRunOps>& opcode_retired() const {
    return op_retired_;
  }

  /// Always false (there is no threaded engine); perfbench/stvm.cpp is its only caller.
  bool dispatch_threaded() const { return false; }

  /// True when this VM runs native JIT-compiled blocks (jit.hpp).
  bool dispatch_jit() const { return jit_active_; }

  /// How often the JIT left native code (zero on the switch engine).  Not
  /// architectural -- the switch engine has no such seam -- so kept out
  /// of VmStats; reported by metrics_json() and ST_STATS.
  struct JitCounters {
    std::uint64_t native_rounds = 0;  ///< rounds run by jit_round() (not entries)
    std::uint64_t host_visits = 0;    ///< returns from native code to the host
  };
  const JitCounters& jit_counters() const { return jit_counters_; }

  /// True when this build/host can run the baseline JIT at all
  /// (benches and tests gate their jit columns/dimensions on this).
  static bool jit_supported() { return jit_available(); }

  /// The run-form stream the JIT compiled (empty on the switch engine).
  const Predecoded& predecoded() const { return pre_; }

 private:
  // ---- structure -------------------------------------------------------
  struct ExportedFrame {
    Addr fp = 0;       ///< frame's high end
    Addr top = 0;      ///< frame's low end (its SP extent)
    Addr ra_slot = 0;  ///< address of the return-address slot (retire mark)
  };
  struct TopmostFirst {  // "max E" in growth order = numerically lowest fp
    bool operator()(const ExportedFrame& a, const ExportedFrame& b) const {
      return a.fp > b.fp;  // MaxHeap keeps the numerically smallest fp on top
    }
  };

  struct Trampoline {
    enum class Kind { kUser, kScheduler, kHalt };
    Kind kind = Kind::kUser;
    Addr ret_pc = 0;
    Word saved[4] = {0, 0, 0, 0};  // r4..r7 at restart time
    bool is_fork = false;
    unsigned owner = 0;  // worker that created it (scheduler kind)
  };

  struct VmWorkerState {
    std::array<Word, kNumRegs> regs{};
    Addr pc = 0;
    bool idle = true;
    bool halted = false;
    Addr stack_lo = 0, stack_hi = 0;  // stack occupies [lo, hi); grows down
    stu::MaxHeap<ExportedFrame, TopmostFirst> exported;
    std::set<Addr> extended_sps;
    stu::OwnerDeque<Addr> readyq;  // context addresses
    int steal_request_from = -1;   // requester worker id, -1 none
    Addr steal_reply = kNoReply;   // kNoReply none, kRejected, or ctx addr
    int awaiting_victim = -1;      // victim we posted a request to
  };

  static constexpr Addr kNoReply = -2;
  static constexpr Addr kRejected = -1;
  // kBuiltinBase / kTrampBase live in isa.hpp (shared with the predecoder).

  enum Builtin : int {
    kBAlloc,
    kBPrint,
    kBSuspend,
    kBSuspendPublish,
    kBRestart,
    kBResume,
    kBPoll,
    kBWorkerId,
    kBNumWorkers,
    kBExit,       // __st_exit(value): terminate the whole program
    kBForkBegin,  // markers survive only in unpostprocessed code: no-ops
    kBForkEnd,
    kBCount,
  };

  // Context layout (words at the context address).
  static constexpr Word kCtxPc = 0, kCtxFp = 1, kCtxBottomFp = 2, kCtxRegs = 3,
                        kCtxBottomRaSlot = 7, kCtxBottomPfpSlot = 8, kCtxWords = 9;

  // ---- execution -------------------------------------------------------
  void step_worker(unsigned w);
  void exec_instr(unsigned w);
  /// Runs worker `first` for `budget` instructions, then workers
  /// first+1..last for one quantum each, through the native blocks
  /// (jit.cpp).  Quantum boundaries between them switch workers inside
  /// native code (JitState::slot); cold instructions are single-stepped
  /// through exec_instr -- the switch engine is the oracle seam, so
  /// builtins, trampolines, halt and every fault path behave
  /// byte-identically to an all-switch run.  Up to `wraps` further
  /// rounds of full quanta follow natively, until the first host visit
  /// (`wraps` needs budget == quantum <= kMaxStretch); returns the
  /// rounds run.
  std::uint64_t exec_jit(unsigned first, unsigned last, int budget,
                         std::int64_t wraps = 0);
  /// Runs a batch of scheduler rounds as exec_jit(0, workers-1, quantum,
  /// wraps): same boundaries, order and counters as step_worker() over
  /// every worker, round after round.  The batch ends at the first host
  /// visit (a cold instruction) or after as many whole rounds as keep
  /// stats_.instructions at or below max_steps.  Returns the rounds run,
  /// or 0, having run nothing, unless the JIT is on, several workers are
  /// all busy at in-range pcs, the quantum fits kMaxStretch, and no
  /// recorder, replayer or tracer observes quantum boundaries.
  std::uint64_t jit_round();
  /// True when a schedule recorder, replayer or tracer is attached and
  /// so sees quantum boundaries; the JIT batches quanta only when not.
  static bool quanta_observed();
  /// A native stretch can grow the host stack by up to 8 bytes per
  /// executed instruction (a call whose return is redirected leaves its
  /// frame until the exit stub unwinds), so one entry runs at most this
  /// many instructions per worker.
  static constexpr int kMaxStretch = 1 << 16;
  /// Most quanta (one worker) or rounds (several) one native batch runs.
  static constexpr std::uint64_t kMaxBatch = 4096;
  void idle_step(unsigned w);
  void do_builtin(unsigned w, int id);
  void take_trampoline(unsigned w, Addr token);

  // ---- runtime primitives ----------------------------------------------
  struct UnwindResult {
    Addr resume_pc = 0;  // fork point return address (or 0 if scheduler)
    Addr fp = 0;
    bool reached_scheduler = false;
  };
  UnwindResult unwind(unsigned w, Addr ctx, Addr resume_pc, Addr fp, Word n);
  void apply_unwind(unsigned w, const UnwindResult& r);
  void do_restart(unsigned w, Addr ctx, Addr ret_pc, Addr f_fp, bool from_scheduler);
  /// Returns true when a migration changed the worker's control state.
  bool serve_steal(unsigned w, Addr resume_pc, Addr fp, bool running);
  void shrink(unsigned w, Addr cur_pc);
  void extend_if_needed(unsigned w, Addr cur_pc);
  Word count_forks(Addr resume_pc, Addr fp) const;

  // ---- helpers ----------------------------------------------------------
  void trace(stu::TraceEvent ev, unsigned w, std::uint64_t a = 0,
             std::uint64_t b = 0) noexcept {
    if (stu::trace_enabled(ev)) [[unlikely]] {
      trace_.emit(ev, static_cast<std::uint16_t>(w), stu::kTraceSrcStvm, a, b);
    }
  }
  /// HB annotation seams (src/analysis/hb.hpp): log an architectural
  /// memory access / a continuation-handoff edge onto the decision
  /// clock.  `aux` of an access is the global retired-instruction count,
  /// which identifies the access's position inside its quantum for the
  /// explorer's preempt-before-access splits.
  void note_access(unsigned w, Addr addr, stu::SchedAccessKind k) {
    if (annotate_) [[unlikely]] {
      stu::sched_access(static_cast<std::uint16_t>(w), stu::kTraceSrcStvm,
                        static_cast<std::uint64_t>(addr), k, stats_.instructions,
                        &trace_);
    }
  }
  void note_hb_release(unsigned w, Addr token) {
    if (annotate_) [[unlikely]] {
      stu::sched_hb_release(static_cast<std::uint16_t>(w), stu::kTraceSrcStvm,
                            static_cast<std::uint64_t>(token), stu::kSchedHbCtx,
                            &trace_);
    }
  }
  void note_hb_acquire(unsigned w, Addr token) {
    if (annotate_) [[unlikely]] {
      stu::sched_hb_acquire(static_cast<std::uint16_t>(w), stu::kTraceSrcStvm,
                            static_cast<std::uint64_t>(token), stu::kSchedHbCtx,
                            &trace_);
    }
  }
  /// Shared bounds predicate for every memory accessor: one unsigned
  /// compare covering both "below the guard word" and "past the end".
  bool addr_ok(Addr a) const {
    return static_cast<std::uint64_t>(a) - 1 <
           static_cast<std::uint64_t>(memory_.size()) - 1;
  }
  Word& mem(Addr a);
  Word read_mem(Addr a) const;
  void validate_worker(unsigned w) const;
  bool is_local(unsigned w, Addr addr) const;
  /// getmaxe's value: the topmost exported frame's FP, or the
  /// above-stack sentinel when the exported set is empty.
  static Word maxe_of(const VmWorkerState& W) {
    return W.exported.empty() ? W.stack_hi + 1 : W.exported.max().fp;
  }
  /// JitSlot::poll: 0 when __st_poll has nothing to serve or pop, -1 when
  /// a steal request is pending, else the topmost exported frame's
  /// return-address slot (whose live word decides whether shrink pops).
  /// addr_ok() bounds it by the memory span, which the JIT only compiles
  /// for below 2^31 words.
  std::int32_t poll_word_of(const VmWorkerState& W) const {
    if (W.steal_request_from >= 0) return -1;
    if (W.exported.empty()) return 0;
    const Addr ra_slot = W.exported.max().ra_slot;
    return addr_ok(ra_slot) ? static_cast<std::int32_t>(ra_slot) : -1;  // else the host faults
  }
  /// Native code only runs workers at in-code pcs, below 2^31 (compile()).
  JitSlot jit_slot_of(unsigned v) {
    auto& V = workers_[v];
    return {V.regs.data(), static_cast<std::int32_t>(V.pc), poll_word_of(V), maxe_of(V)};
  }
  const ProcDescriptor* proc_of(Addr pc, const char* why) const;
  Addr make_trampoline(Trampoline t);
  Addr alloc_heap(Word n);
  [[noreturn]] void fail(unsigned w, const std::string& msg) const;

  std::vector<Instr> code_;
  /// Lives as long as the Vm, though only compile() reads it: where this
  /// block sits in the heap decides which of two layouts perfbench's
  /// dnc-fine reads for peak_rss_mb (EXPERIMENTS.md).
  Predecoded pre_;
  bool jit_active_ = false; ///< native blocks compiled and selected
  JitState jit_state_;      ///< host<->native mailbox (address baked into code)
  std::unique_ptr<JitProgram> jit_;
  std::vector<JitSlot> jit_slots_;  ///< one per worker (exec_jit)
  JitCounters jit_counters_;
  bool annotate_ = false;   ///< HB access annotation (sched_annotating() at ctor)
  bool counting_ = false;   ///< opcode histogram on, fixed at construction
  bool work_dirty_ = true;  ///< work appeared since the last deadlock sweep
  std::array<std::uint64_t, kNumRunOps> op_retired_{};
  DescriptorTable table_;
  Word max_args_ = 0;
  VmConfig cfg_;
  std::vector<VmWorkerState> workers_;
  std::vector<Word> memory_;
  Addr heap_next_ = 16;
  Addr heap_end_ = 0;
  std::map<Addr, Trampoline> trampolines_;
  Addr next_tramp_ = kTrampBase;
  std::vector<Word> output_;
  VmStats stats_;
  stu::TraceRing trace_;
  stu::LogHistogram exported_depth_;  ///< exported-set size after each unwind
  int metrics_provider_ = -1;
  stu::Xoshiro256 rng_;
  std::optional<Word> result_;
};

}  // namespace stvm
