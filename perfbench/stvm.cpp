// stvm: the STVM toolchain and VM under the engine a default Vm picks.
//
// Kernels: pfib and psum run on 1 and 4 virtual workers.  Their sequential
// baseline is the same computation in native C++, so the ratios price the
// VM (engine and frame surgery) against native code; the fork-free STVM
// programs (fib, and `ssum`, a fork-free copy of psum written here) run as
// the reference.  Without this workload the postprocessor, predecode, JIT
// and frame-surgery code would go unmeasured.
//
// Set-up (assemble, postprocess, Vm construction including predecode and
// JIT) is timed separately from Vm::run.  Every run's return value is
// checked against its closed form, and every repetition of a (program,
// worker count) pair must retire identical VmStats.
#include <cstring>
#include <map>
#include <memory>

#include "apps/fib.hpp"
#include "stbench.hpp"
#include "stvm/asm.hpp"
#include "stvm/postproc.hpp"
#include "stvm/programs.hpp"
#include "stvm/vm.hpp"

namespace pb {
namespace {

/// psum with the fork and join removed: the sequential baseline of psum.
const char* const kSsum = R"(
.proc ssum
ssum:
    subi sp, sp, 8
    st lr, [sp + 7]
    st fp, [sp + 6]
    addi fp, sp, 8
    st r4, [fp - 3]
    st r5, [fp - 4]
    ld r0, [fp + 0]
    ld r1, [fp + 1]
    sub r2, r1, r0
    li r3, 4
    bge r2, r3, ssum_split
    ld r2, [fp + 2]
    add r2, r2, r0
    ld r3, [fp + 2]
    add r3, r3, r1
    li r0, 0
ssum_loop:
    bge r2, r3, ssum_done
    ld r4, [r2 + 0]
    add r0, r0, r4
    addi r2, r2, 1
    jmp ssum_loop
ssum_split:
    ld r0, [fp + 0]
    ld r1, [fp + 1]
    sub r2, r1, r0
    li r3, 2
    div r2, r2, r3
    add r5, r0, r2
    ld r0, [fp + 0]
    st r0, [sp + 0]
    st r5, [sp + 1]
    ld r0, [fp + 2]
    st r0, [sp + 2]
    call ssum
    mov r4, r0
    st r5, [sp + 0]
    ld r0, [fp + 1]
    st r0, [sp + 1]
    ld r0, [fp + 2]
    st r0, [sp + 2]
    call ssum
    add r0, r4, r0
ssum_done:
    ld r5, [fp - 4]
    ld r4, [fp - 3]
    ld lr, [fp - 1]
    mov sp, fp
    ld fp, [fp - 2]
    jr lr
.endproc

.proc ssum_main
ssum_main:
    subi sp, sp, 8
    st lr, [sp + 7]
    st fp, [sp + 6]
    addi fp, sp, 8
    st r4, [fp - 3]
    st r5, [fp - 4]
    ld r0, [fp + 0]
    st r0, [sp + 0]
    call __st_alloc
    mov r4, r0
    li r5, 0
fill_loop:
    ld r1, [fp + 0]
    bge r5, r1, fill_done
    add r2, r4, r5
    addi r3, r5, 1
    st r3, [r2 + 0]
    addi r5, r5, 1
    jmp fill_loop
fill_done:
    li r0, 0
    st r0, [sp + 0]
    ld r0, [fp + 0]
    st r0, [sp + 1]
    st r4, [sp + 2]
    call ssum
    st r0, [sp + 0]
    call __st_exit
.endproc
)";

/// Native counterpart of psum_main: fill a[i] = i + 1, then sum by the
/// same divide and conquer (leaves below 4 elements).
stvm::Word native_sum(const std::vector<stvm::Word>& a, std::size_t lo, std::size_t hi) {
  if (hi - lo < 4) {
    stvm::Word s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += a[i];
    return s;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  return native_sum(a, lo, mid) + native_sum(a, mid, hi);
}

stvm::Word native_psum(stvm::Word n) {
  std::vector<stvm::Word> a(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<stvm::Word>(i) + 1;
  return native_sum(a, 0, a.size());
}

std::string engine_of(const stvm::Vm& vm) {
  return vm.dispatch_jit() ? "jit" : vm.dispatch_threaded() ? "threaded" : "switch";
}

/// One program: its source, entry, argument and closed-form result.
struct Prog {
  std::string name;
  std::string source;
  bool stdlib;
  const char* entry;
  stvm::Word arg;
  stvm::Word expect;
  stvm::PostprocResult compiled;
};

/// A kernel: native baseline, fork-free reference program, and the
/// parallel program run at 1 and P workers.
struct VmKernel {
  std::string name;
  stvm::Word (*native)(stvm::Word);
  Prog* ref;
  Prog* par;
  int native_reps = 1;  ///< native calls per timing
  int triples = 1;      ///< (native, P1, P) triples per round
};

bool same_stats(const stvm::VmStats& a, const stvm::VmStats& b) {
  return a.instructions == b.instructions && a.suspends == b.suspends &&
         a.restarts == b.restarts && a.resumes == b.resumes &&
         a.steals_served == b.steals_served && a.steals_rejected == b.steals_rejected &&
         a.frames_unwound == b.frames_unwound && a.shrink_reclaimed == b.shrink_reclaimed &&
         a.retired_marks_seen == b.retired_marks_seen &&
         a.trampolines_taken == b.trampolines_taken;
}

class StvmRun {
 public:
  explicit StvmRun(Ctx& ctx) : ctx_(ctx) {}

  void run() {
    ctx_.P = 4;  // virtual workers: the VM steps them on one host thread
    const bool tiny = ctx_.opt.tiny;
    const stvm::Word fib_n = tiny ? 12 : 24;
    const stvm::Word sum_n = tiny ? 1000 : 400'000;
    stvm::Word fib = 0;
    for (stvm::Word b = 1, i = 0; i < fib_n; ++i) {
      const stvm::Word t = fib + b;
      fib = b;
      b = t;
    }
    const stvm::Word sum = sum_n * (sum_n + 1) / 2;
    progs_ = {{"fib", stvm::programs::fib(), false, "main", fib_n, fib, {}},
              {"pfib", stvm::programs::pfib(), true, "pmain", fib_n, fib, {}},
              {"ssum", kSsum, false, "ssum_main", sum_n, sum, {}},
              {"psum", stvm::programs::psum(), true, "psum_main", sum_n, sum, {}}};
    kernels_ = {{"pfib", [](stvm::Word n) -> stvm::Word { return apps::fib::seq(static_cast<int>(n)); },
                 &progs_[0], &progs_[1]},
                {"psum", &native_psum, &progs_[2], &progs_[3]}};
    setup();
    measure();
    finish();
  }

 private:
  stvm::VmConfig config(unsigned workers) const {
    stvm::VmConfig cfg;
    cfg.workers = workers;
    cfg.steal_seed = ctx_.opt.seed;
    return cfg;
  }

  /// Assembles and postprocesses every program and constructs one Vm per
  /// (program, worker count) used below, several times; setup_s is the
  /// median of the totals.
  void setup() {
    std::vector<double> asm_ms, post_ms, ctor_ms;
    const int reps = ctx_.opt.tiny ? 2 : 11;
    for (int rep = 0; rep < reps; ++rep) {
      double a = 0, p = 0, c = 0;
      const std::uint64_t t0 = now_ns();
      for (Prog& g : progs_) {
        const std::string full = g.stdlib ? g.source + "\n" + stvm::programs::stdlib() : g.source;
        std::uint64_t t = now_ns();
        stvm::Module m;
        {
          Span s(ctx_.spans, "stvm.assemble", "stvm");
          m = stvm::assemble(full);
        }
        a += ms_since(t);
        t = now_ns();
        {
          Span s(ctx_.spans, "stvm.postprocess", "stvm");
          g.compiled = stvm::postprocess(m);
        }
        p += ms_since(t);
      }
      for (const VmKernel& k : kernels_) {
        for (const auto& [prog, workers] :
             {std::pair{k.ref, 1u}, std::pair{k.par, 1u}, std::pair{k.par, ctx_.P}}) {
          const std::uint64_t t = now_ns();
          Span s(ctx_.spans, "stvm.vm_ctor", "stvm");
          stvm::Vm vm(prog->compiled, config(workers));
          c += ms_since(t);
        }
      }
      ctx_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      asm_ms.push_back(a);
      post_ms.push_back(p);
      ctor_ms.push_back(c);
    }
    assemble_ms_ = median(asm_ms);
    postprocess_ms_ = median(post_ms);
    vm_ctor_ms_ = median(ctor_ms);
  }

  /// Runs `prog` on `workers` virtual workers; returns Vm::run's time.
  double time_run(const Prog& prog, unsigned workers, const std::string& key, int parent) {
    stvm::Vm vm(prog.compiled, config(workers));
    const std::uint64_t t0 = now_ns();
    stvm::Word got = 0;
    {
      Span s(ctx_.spans, prog.name + ".run", "stvm", parent);
      got = vm.run(prog.entry, {prog.arg});
    }
    const double ms = ms_since(t0);
    ctx_.checks.expect(got == prog.expect, key + " returned " + std::to_string(got) +
                                               ", expected " + std::to_string(prog.expect));
    const auto [it, first] = stats_.try_emplace(key, vm.stats());
    if (!first) {
      ctx_.checks.expect(same_stats(it->second, vm.stats()),
                         key + " VmStats differ between repetitions");
    }
    if (first && workers == ctx_.P && ctx_.opt.trace) ctx_.snapshot(key, vm.metrics_json());
    return ms;
  }

  /// The native baseline, called native_reps times back to back; returns
  /// the time of one call.
  double time_native(const VmKernel& k, int parent) {
    stvm::Word got = 0;
    const std::uint64_t t0 = now_ns();
    {
      Span s(ctx_.spans, k.name + ".native", "bench", parent);
      for (int i = 0; i < k.native_reps; ++i) got = k.native(k.par->arg);
    }
    const double ms = ms_since(t0) / k.native_reps;
    ctx_.checks.expect(got == k.par->expect, k.name + " native baseline returned " +
                                                 std::to_string(got));
    return ms;
  }

  void measure() {
    ctx_.set_tracing(false);
    for (VmKernel& k : kernels_) {  // warm-up
      const double native_ms = time_native(k, -1);
      k.native_reps = reps_for(native_ms);
      time_run(*k.ref, 1, k.ref->name + "/1", -1);
      const double vm_ms = time_run(*k.par, 1, k.par->name + "/1", -1) +
                           time_run(*k.par, ctx_.P, k.par->name + "/P", -1);
      k.triples = triples_for(native_ms * k.native_reps + vm_ms);
    }
    const std::uint64_t t_start = now_ns();
    for (int round = 0; ctx_.keep_going(t_start, ctx_.opt.seconds, round); ++round) {
      ctx_.set_tracing(ctx_.traced_round(round));
      std::vector<KernelTimes>& times = ctx_.times_for(round);
      Span rs(ctx_.spans, "round", "bench");
      for (const VmKernel& k : kernels_) {
        KernelTimes& kt = ctx_.kernel(times, k.name);
        for (int t = 0; t < k.triples; ++t) {
          kt.seq_ms.push_back(time_native(k, rs.id()));
          kt.p1_ms.push_back(time_run(*k.par, 1, k.par->name + "/1", rs.id()));
          kt.par_ms.push_back(time_run(*k.par, ctx_.P, k.par->name + "/P", rs.id()));
        }
        kt.ref_ms.push_back(time_run(*k.ref, 1, k.ref->name + "/1", rs.id()));
      }
    }
    ctx_.set_tracing(false);
  }

  void finish() {
    Obj& o = ctx_.layer;
    o.num("stvm.assemble_ms", assemble_ms_)
        .num("stvm.postprocess_ms", postprocess_ms_)
        .num("stvm.vm_ctor_ms", vm_ctor_ms_);
    // Architectural counts of one run of each program (identical across
    // repetitions, checked above); the parallel programs at P workers.
    for (const Prog& g : progs_) {
      const bool parallel = g.stdlib;
      const stvm::VmStats& s = stats_.at(g.name + (parallel ? "/P" : "/1"));
      const std::string p = "vm." + g.name + ".";
      o.num(p + "instructions", static_cast<double>(s.instructions))
          .num(p + "suspends", static_cast<double>(s.suspends))
          .num(p + "restarts", static_cast<double>(s.restarts))
          .num(p + "steals_served", static_cast<double>(s.steals_served))
          .num(p + "frames_unwound", static_cast<double>(s.frames_unwound))
          .num(p + "shrink_reclaimed", static_cast<double>(s.shrink_reclaimed));
    }
  }

  Ctx& ctx_;
  std::vector<Prog> progs_;
  std::vector<VmKernel> kernels_;
  std::map<std::string, stvm::VmStats> stats_;
  double assemble_ms_ = 0, postprocess_ms_ = 0, vm_ctor_ms_ = 0;
};

}  // namespace

void run_stvm(Ctx& ctx) { StvmRun(ctx).run(); }

std::string default_vm_engine() {
  const stvm::PostprocResult prog = stvm::programs::compile(stvm::programs::fib(), false);
  return engine_of(stvm::Vm(prog));
}

}  // namespace pb
