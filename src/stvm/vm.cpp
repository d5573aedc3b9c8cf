#include "stvm/vm.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "stvm/verify.hpp"
#include "util/domain_spec.hpp"
#include "util/env.hpp"
#include "util/sched_log.hpp"
#include "util/trace_export.hpp"

namespace stvm {

namespace {

constexpr Addr kAddrMax = std::numeric_limits<Addr>::max();

bool is_fork_point(const ProcDescriptor* d, Addr call_addr) {
  return d != nullptr &&
         std::find(d->fork_points.begin(), d->fork_points.end(), call_addr) !=
             d->fork_points.end();
}

}  // namespace

// ---------------------------------------------------------------------
// Construction / linking
// ---------------------------------------------------------------------

Vm::Vm(const PostprocResult& program, VmConfig cfg)
    : code_(program.module.code), cfg_(cfg), rng_(cfg.steal_seed) {
  stu::trace_configure_from_env();
  stu::metrics_configure_from_env();
  stu::sched_configure_from_env();
  stu::trace_ring_register(&trace_);
  metrics_provider_ =
      stu::MetricsRegistry::instance().add_provider([this] { return metrics_json(); });
  if (cfg_.workers == 0) cfg_.workers = 1;
  // Steal domains (model twin of runtime/topology.hpp).  Only explicit
  // ST_TOPOLOGY specs take effect -- `auto`/flat leave one domain and
  // victim selection bit-identical to the pre-hierarchy VM.
  domain_of_.assign(cfg_.workers, 0);
  {
    const stu::DomainSpec spec = stu::domain_spec_from_env();
    if (spec.explicit_domains()) {
      for (unsigned v = 0; v < cfg_.workers; ++v) {
        domain_of_[v] = static_cast<std::uint16_t>(spec.domain_of(v));
      }
      num_domains_ = spec.domains(cfg_.workers);
    }
  }
  steal_local_retries_ = static_cast<unsigned>(
      std::max(0L, stu::env_long("ST_STEAL_LOCAL_RETRIES", 4)));
  // Opt-in load-time gate: with ST_VERIFY=1 every module is statically
  // verified before it can run (see stvm/verify.hpp; docs/VERIFIER.md).
  if (verify_enabled()) verify_or_throw(program);
  for (const auto& d : program.descriptors) table_.add(d);
  max_args_ = table_.max_args_region();

  // Resolve label operands: module labels first, then runtime entries.
  const std::map<std::string, int> builtins = {
      {"__st_alloc", kBAlloc},
      {"__st_print", kBPrint},
      {"__st_suspend", kBSuspend},
      {"__st_suspend_publish", kBSuspendPublish},
      {"__st_restart", kBRestart},
      {"__st_resume", kBResume},
      {kPollEntry, kBPoll},
      {"__st_worker_id", kBWorkerId},
      {"__st_num_workers", kBNumWorkers},
      {"__st_exit", kBExit},
      {kForkBegin, kBForkBegin},
      {kForkEnd, kBForkEnd},
  };
  for (auto& ins : code_) {
    if (ins.label.empty()) continue;
    auto lit = program.module.labels.find(ins.label);
    if (lit != program.module.labels.end()) {
      ins.target = static_cast<Addr>(lit->second);
      continue;
    }
    auto bit = builtins.find(ins.label);
    if (bit != builtins.end()) {
      ins.target = kBuiltinBase + bit->second;
      continue;
    }
    throw VmError("unresolved symbol: " + ins.label);
  }

  // Memory layout: [0,16) guard, heap, then one stack segment per worker.
  heap_end_ = 16 + static_cast<Addr>(cfg_.heap_words);
  const Addr total =
      heap_end_ + static_cast<Addr>(cfg_.workers) * static_cast<Addr>(cfg_.stack_words);
  memory_.assign(static_cast<std::size_t>(total), 0);

  workers_.resize(cfg_.workers);
  for (unsigned w = 0; w < cfg_.workers; ++w) {
    auto& W = workers_[w];
    W.stack_lo = heap_end_ + static_cast<Addr>(w) * static_cast<Addr>(cfg_.stack_words);
    W.stack_hi = W.stack_lo + static_cast<Addr>(cfg_.stack_words);
    W.regs[kSp] = W.stack_hi;
  }

  // Engine selection.
  bool jit = cfg_.dispatch != VmConfig::Dispatch::kSwitch;
  if (cfg_.dispatch == VmConfig::Dispatch::kEnv) {
    const std::string d = stu::env_string("ST_STVM_DISPATCH", "jit");
    if (d != "switch" && d != "jit") {
      throw VmError("ST_STVM_DISPATCH must be 'switch' or 'jit', got: " + d);
    }
    jit = d == "jit";
  }
  // Access annotation (util/sched_log.hpp kSchedAccess) needs the
  // per-instruction seam only the switch engine has, so an annotating
  // run forces it.  Schedules are engine-agnostic (both engines charge
  // budget per architectural instruction), so an analysis or explored
  // interleaving from a switch-engine run transfers to the JIT.
  annotate_ = stu::sched_annotating();
  counting_ = cfg_.count_opcodes || stu::metrics_enabled() || stu::trace_stats_enabled();
  // JIT fallback ladder (docs/OBSERVABILITY.md): native emission
  // unavailable on this build/host, validate mode (needs the
  // per-instruction hook) or a refused compile runs the switch engine.
  // The run-form stream is built after label resolution, so module and
  // verify semantics are untouched.
  if (!jit || annotate_ || !jit_supported() || cfg_.validate) return;
  pre_ = predecode(code_);
  jit_ = std::make_unique<JitProgram>();
  if (jit_->compile(pre_, static_cast<std::int64_t>(code_.size()), memory_.size(),
                    memory_.data(), &jit_state_,
                    counting_ ? op_retired_.data() : nullptr)) {
    jit_active_ = true;
    jit_slots_.resize(cfg_.workers);
  } else {
    // Compile refused (e.g. a memory span beyond the emitted 32-bit
    // bounds immediates): fall back like an unsupported host.
    jit_.reset();
    pre_ = Predecoded{};
  }
}

Vm::~Vm() {
  if (!trace_.empty()) stu::trace_flush(trace_);
  stu::trace_ring_unregister(&trace_);
  if (metrics_provider_ >= 0) {
    stu::MetricsRegistry::instance().remove_provider(metrics_provider_);
  }
  if (stu::trace_stats_enabled()) {
    std::string line;
    stats_.for_each([&](const char* key, std::uint64_t v) {
      line += std::string(" ") + key + "=" + std::to_string(v);
    });
    std::fprintf(stderr, "[st-stats stvm workers=%u]%s\n", cfg_.workers, line.c_str());
    if (jit_active_) {
      std::fprintf(stderr, "[st-stats stvm jit] native_rounds=%llu host_visits=%llu\n",
                   static_cast<unsigned long long>(jit_counters_.native_rounds),
                   static_cast<unsigned long long>(jit_counters_.host_visits));
    }
    std::fprintf(stderr, "[st-stats stvm opcodes dispatch=%s]",
                 jit_active_ ? "jit" : "switch");
    for (int i = 0; i < kNumRunOps; ++i) {
      if (op_retired_[static_cast<std::size_t>(i)] == 0) continue;
      std::fprintf(stderr, " %s=%llu", run_op_name(static_cast<RunOp>(i)),
                   static_cast<unsigned long long>(op_retired_[static_cast<std::size_t>(i)]));
    }
    std::fprintf(stderr, "\n");
  }
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

Word& Vm::mem(Addr a) {
  if (!addr_ok(a)) {
    throw VmError("memory access out of range: " + std::to_string(a));
  }
  return memory_[static_cast<std::size_t>(a)];
}

Word Vm::read_mem(Addr a) const {
  if (!addr_ok(a)) {
    throw VmError("memory access out of range: " + std::to_string(a));
  }
  return memory_[static_cast<std::size_t>(a)];
}

bool Vm::is_local(unsigned w, Addr addr) const {
  return addr >= workers_[w].stack_lo && addr < workers_[w].stack_hi;
}

const ProcDescriptor* Vm::proc_of(Addr pc, const char* why) const {
  const ProcDescriptor* d = table_.find(pc);
  if (d == nullptr) {
    throw VmError(std::string("no procedure descriptor covering address ") +
                  std::to_string(pc) + " (" + why + ")");
  }
  return d;
}

Addr Vm::make_trampoline(Trampoline t) {
  const Addr token = next_tramp_++;
  trampolines_[token] = t;
  return token;
}

Addr Vm::alloc_heap(Word n) {
  if (n < 0 || heap_next_ + n > heap_end_) throw VmError("heap exhausted");
  const Addr p = heap_next_;
  heap_next_ += n;
  return p;
}

void Vm::fail(unsigned w, const std::string& msg) const {
  std::ostringstream out;
  out << "worker " << w << " @ pc=" << workers_[w].pc << ": " << msg;
  throw VmError(out.str());
}

// ---------------------------------------------------------------------
// Top-level run loop
// ---------------------------------------------------------------------

Word Vm::run(const std::string& entry, const std::vector<Word>& args) {
  if (result_.has_value()) throw VmError("Vm::run may only be called once");
  const ProcDescriptor* d = table_.by_name(entry);
  if (d == nullptr) throw VmError("unknown entry procedure: " + entry);

  auto& W0 = workers_[0];
  W0.regs[kSp] = W0.stack_hi - 16;  // pseudo caller frame holding the args
  for (std::size_t i = 0; i < args.size(); ++i) mem(W0.regs[kSp] + static_cast<Addr>(i)) = args[i];
  // The entry runs as a fine-grain thread above a scheduler fork boundary
  // (so its joins may suspend); programs terminate via __st_exit.
  Trampoline sched;
  sched.kind = Trampoline::Kind::kScheduler;
  sched.is_fork = true;
  sched.owner = 0;
  W0.regs[kLr] = make_trampoline(sched);
  W0.regs[kFp] = 0;
  W0.pc = d->entry;
  W0.idle = false;

  // Deadlock detection, incrementally: the full all-worker sweep is the
  // authority (so there are no false positives), but it only runs every
  // 4th round and only when no step has flagged new work since the last
  // sweep (work_dirty_ is set by restart, resume, and steal traffic).
  // Two consecutive quiet sweeps -- everything idle, nothing queued,
  // nothing in flight, no __st_exit -- are conclusive: an all-quiet
  // state with no pending transitions cannot become runnable again.
  int quiet_sweeps = 0;
  std::uint64_t round = 0;
  work_dirty_ = true;
  while (!result_.has_value()) {
    std::uint64_t rounds = jit_round();
    if (rounds == 0) {
      for (unsigned w = 0; w < cfg_.workers && !result_.has_value(); ++w) {
        step_worker(w);
      }
      rounds = 1;
    }
    if (stats_.instructions > cfg_.max_steps) {
      throw VmError("instruction budget exhausted (livelock or runaway program)");
    }
    // A native batch's rounds before its last ended with every worker
    // busy and no host code run: the sweep below has nothing to see in
    // them (exec_jit cleared work_dirty_ for them), so they only count.
    round += rounds;
    if (work_dirty_) {
      work_dirty_ = false;
      quiet_sweeps = 0;
      continue;
    }
    if ((round & 3) != 0) continue;
    bool quiet = !result_.has_value();
    for (const auto& W : workers_) {
      if (!W.idle || W.halted || !W.readyq.empty() || W.steal_request_from >= 0 ||
          W.steal_reply != kNoReply) {
        quiet = false;
        break;
      }
    }
    quiet_sweeps = quiet ? quiet_sweeps + 1 : 0;
    if (quiet_sweeps >= 2) {
      throw VmError(
          "deadlock: all workers idle with no runnable work and no __st_exit\n" +
          dump_logical_stacks());
    }
  }
  return *result_;
}

void Vm::step_worker(unsigned w) {
  auto& W = workers_[w];
  if (W.halted) return;
  if (W.idle) {
    idle_step(w);
    return;
  }
  // Schedule record/replay seam (util/sched_log.hpp).  The quantum
  // length is the VM's one timing-like degree of freedom: replay forces
  // the budget to the instruction count the recorded quantum actually
  // retired, making preemption points land on the same architectural
  // instruction regardless of engine (both engines charge the budget
  // once per architectural instruction).
  int budget = cfg_.quantum;
  const bool recording = stu::sched_recording();
  stu::SchedDecision forced{};
  bool have_forced = false;
  if (stu::sched_replaying()) [[unlikely]] {
    // Consume without the trace ride-along: recording emits its
    // kTraceSched *after* the quantum runs (the instruction count is
    // only known then), so replay defers its re-emission to the same
    // point to keep the two trace streams bit-identical.
    if (stu::sched_replay_next(stu::kSchedQuantum, static_cast<std::uint16_t>(w),
                               stu::kTraceSrcStvm, &forced)) {
      have_forced = true;
      // A mutated log can carry any value; clamp so progress is
      // guaranteed and the budget fits the engines' int arithmetic.
      budget = forced.a < 1 ? 1
               : forced.a > 0x40000000ull ? 0x40000000
                                          : static_cast<int>(forced.a);
    }
  }
  const std::uint64_t before = stats_.instructions;
  if (jit_active_) {
    int b = budget;
    if (cfg_.workers == 1 && !quanta_observed()) {
      // Quantum coalescing: with one worker and no recorder/replayer/
      // tracer attached, quantum boundaries have no observer -- no
      // interleaving, no kSchedQuantum events, no per-quantum stats --
      // so several quanta run as one native stretch.  The batch stops at
      // a multiple of the quantum that stays at-or-below max_steps, so a
      // runaway program still errors on exactly the boundary where the
      // switch engine's per-sweep check fires (floor(room/quantum) is 0
      // there, degrading to single quanta).  Everything else that ends a
      // quantum early (halt, idle, faults) ends the batch the same way.
      const std::uint64_t q = static_cast<std::uint64_t>(budget);
      const std::uint64_t room = cfg_.max_steps > stats_.instructions
                                     ? cfg_.max_steps - stats_.instructions
                                     : 0;
      std::uint64_t quanta = q > 0 ? room / q : 0;
      if (quanta > kMaxBatch) quanta = kMaxBatch;
      if (quanta > 1) b = static_cast<int>(quanta * q);
    }
    exec_jit(w, w, b);
  } else {
    for (int i = 0; i < budget; ++i) {
      exec_instr(w);
      if (cfg_.validate) validate_worker(w);
      if (W.idle || W.halted || result_.has_value()) break;
    }
  }
  if (recording) [[unlikely]] {
    stu::sched_record(stu::kSchedQuantum, static_cast<std::uint16_t>(w),
                      stu::kTraceSrcStvm, stats_.instructions - before,
                      static_cast<std::uint64_t>(W.pc), &trace_);
  }
  if (have_forced && stu::trace_enabled(stu::kTraceSched)) [[unlikely]] {
    trace_.emit(stu::kTraceSched, static_cast<std::uint16_t>(w),
                stu::kTraceSrcStvm, forced.seq, forced.kind);
  }
}

void Vm::validate_worker(unsigned w) const {
  const auto& W = workers_[w];
  if (W.idle || W.halted) return;
  const Addr sp = W.regs[kSp];
  if (sp < W.stack_lo || sp > W.stack_hi) {
    fail(w, "SP escaped the physical stack segment: " + std::to_string(sp));
  }
  // Theorem 4(1), dynamically: SP at or above the top of every live
  // (non-retired) exported frame of this worker.
  for (const auto& e : W.exported.raw()) {
    if (read_mem(e.ra_slot) != 0 && sp > e.top) {
      fail(w, "SP moved below a live exported frame (fp=" + std::to_string(e.fp) + ")");
    }
  }
}

void Vm::idle_step(unsigned w) {
  auto& W = workers_[w];
  // Serve thieves even while idle (reject or hand out the readyq tail).
  if (W.steal_request_from >= 0) serve_steal(w, 0, 0, /*running=*/false);
  shrink(w, /*cur_pc=*/-1);
  if (!W.readyq.empty()) {
    const Addr ctx = W.readyq.pop_head();  // Figure 12: schedule readyq head
    do_restart(w, ctx, 0, 0, /*from_scheduler=*/true);
    return;
  }
  if (cfg_.workers <= 1) return;
  if (W.awaiting_victim < 0) {
    // Load-aware victim selection (the model twin of the native
    // runtime's ST_VICTIM=load): probe the worker advertising the
    // deepest readyq.  When every queue is empty, fall back to the
    // blind random probe -- a running victim with an empty readyq can
    // still hand over work via the Figure 9 logical-stack migration.
    //
    // Schedule record/replay: every probe outcome is logged 1:1
    // (including "found nobody", kSchedNoVictim) so replay can force the
    // exact probe sequence.  `b` marks whether the rng fallback drew a
    // number; replay re-draws in that case so the rng stream stays
    // aligned with the recorded run even past the end of the log.
    int victim = -1;
    bool used_rng = false;
    bool forced = false;
    if (stu::sched_replaying()) [[unlikely]] {
      stu::SchedDecision d;
      if (stu::sched_replay_next(stu::kSchedVictim, static_cast<std::uint16_t>(w),
                                 stu::kTraceSrcStvm, &d, &trace_)) {
        forced = true;
        if (d.b != 0) {
          (void)rng_.below(cfg_.workers - 1);
          used_rng = true;
        }
        if (d.a == stu::kSchedNoVictim) {
          victim = -1;
        } else if (d.a < cfg_.workers && d.a != w && !workers_[d.a].halted &&
                   workers_[d.a].steal_request_from < 0) {
          victim = static_cast<int>(d.a);
        } else {
          // Mutated/foreign log: the forced victim is not probeable in
          // this state.  Skip the probe deterministically.
          stu::sched_note_divergence(stu::kSchedVictim,
                                     static_cast<std::uint16_t>(w),
                                     stu::kTraceSrcStvm, d.seq, d.a,
                                     stu::kSchedNoVictim,
                                     "forced victim not probeable");
          victim = -1;
        }
        // The recording side logs a kSchedDomain right after every
        // successful victim decision when the topology is hierarchical:
        // consume it symmetrically (ST_TOPOLOGY identical between record
        // and replay keeps the FIFOs and the ride-along stream aligned).
        if (d.a != stu::kSchedNoVictim && num_domains_ > 1) {
          stu::SchedDecision dd;
          if (stu::sched_replay_next(stu::kSchedDomain,
                                     static_cast<std::uint16_t>(w),
                                     stu::kTraceSrcStvm, &dd, &trace_) &&
              victim >= 0 &&
              dd.a != domain_of_[static_cast<unsigned>(victim)]) {
            stu::sched_note_divergence(
                stu::kSchedDomain, static_cast<std::uint16_t>(w),
                stu::kTraceSrcStvm, dd.seq, dd.a,
                domain_of_[static_cast<unsigned>(victim)],
                "forced victim in a different domain");
          }
        }
      }
    }
    if (!forced) {
      // Hierarchical pass (model twin of choose_victim_hier): deepest
      // readyq within this worker's domain first; other domains open up
      // only once the consecutive local-failure streak crosses
      // ST_STEAL_LOCAL_RETRIES.  Flat topology degenerates to the single
      // global scan, bit-identical to the pre-hierarchy VM.
      const bool remote_ok =
          num_domains_ <= 1 || W.local_fails >= steal_local_retries_;
      std::size_t best_depth = 0;
      for (unsigned v = 0; v < cfg_.workers; ++v) {
        if (v == w || workers_[v].halted || workers_[v].steal_request_from >= 0) continue;
        if (num_domains_ > 1 && domain_of_[v] != domain_of_[w]) continue;
        const std::size_t depth = workers_[v].readyq.size();
        if (depth > best_depth) {
          best_depth = depth;
          victim = static_cast<int>(v);
        }
      }
      if (victim < 0 && remote_ok && num_domains_ > 1) {
        for (unsigned v = 0; v < cfg_.workers; ++v) {
          if (v == w || workers_[v].halted || workers_[v].steal_request_from >= 0) continue;
          if (domain_of_[v] == domain_of_[w]) continue;
          const std::size_t depth = workers_[v].readyq.size();
          if (depth > best_depth) {
            best_depth = depth;
            victim = static_cast<int>(v);
          }
        }
      }
      if (victim < 0) {
        // Blind migration probe.  The draw always happens so the rng
        // stream stays aligned with flat runs; under a locked hierarchy
        // a cross-domain draw is discarded (probe skipped this round).
        unsigned r = static_cast<unsigned>(rng_.below(cfg_.workers - 1));
        used_rng = true;
        if (r >= w) ++r;
        if (workers_[r].steal_request_from < 0 && !workers_[r].halted &&
            (remote_ok || domain_of_[r] == domain_of_[w])) {
          victim = static_cast<int>(r);
        }
      }
    }
    // Recorded whether the probe was free or forced: in replay+record
    // mode (the explorer) the output log must be complete -- the probe
    // as *applied*, so the re-recorded schedule replays standalone.
    if (stu::sched_recording()) [[unlikely]] {
      stu::sched_record(stu::kSchedVictim, static_cast<std::uint16_t>(w),
                        stu::kTraceSrcStvm,
                        victim >= 0 ? static_cast<std::uint64_t>(victim)
                                    : stu::kSchedNoVictim,
                        used_rng ? 1 : 0, &trace_);
      if (victim >= 0 && num_domains_ > 1) {
        const std::uint16_t vd = domain_of_[static_cast<unsigned>(victim)];
        stu::sched_record(stu::kSchedDomain, static_cast<std::uint16_t>(w),
                          stu::kTraceSrcStvm, vd,
                          vd == domain_of_[w] ? 1 : 0, &trace_);
      }
    }
    if (victim < 0) {
      // Count the empty scan toward the streak so a starved domain
      // eventually unlocks cross-domain probing (mirrors the runtime).
      if (W.local_fails < std::numeric_limits<unsigned>::max()) ++W.local_fails;
    }
    if (victim >= 0) {
      workers_[static_cast<std::size_t>(victim)].steal_request_from = static_cast<int>(w);
      W.awaiting_victim = victim;
      work_dirty_ = true;
    }
  } else if (W.steal_reply != kNoReply) {
    const Addr reply = W.steal_reply;
    const int from = W.awaiting_victim;
    W.steal_reply = kNoReply;
    W.awaiting_victim = -1;
    if (reply != kRejected) {
      W.local_fails = 0;  // fed: next idle episode starts local again
      do_restart(w, reply, 0, 0, /*from_scheduler=*/true);
    } else if (num_domains_ > 1 && from >= 0) {
      // A rejected local probe advances the streak; a rejected remote one
      // spends it (cross-domain probes are rate-limited, as in the
      // native runtime's thief).
      if (domain_of_[static_cast<unsigned>(from)] == domain_of_[w]) {
        ++W.local_fails;
      } else {
        W.local_fails = 0;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------

void Vm::exec_instr(unsigned w) {
  auto& W = workers_[w];
  if (W.pc < 0 || W.pc >= static_cast<Addr>(code_.size())) fail(w, "pc out of code range");
  const Instr& ins = code_[static_cast<std::size_t>(W.pc)];
  ++stats_.instructions;
  if (counting_) [[unlikely]] {
    // Op mirrors the head of RunOp, so the plain opcode IS its histogram
    // index (the switch engine never retires split forms).
    ++op_retired_[static_cast<std::size_t>(ins.op)];
  }
  auto& R = W.regs;
  switch (ins.op) {
    case Op::kLi: R[ins.rd] = ins.imm; ++W.pc; break;
    case Op::kMov: R[ins.rd] = R[ins.ra]; ++W.pc; break;
    case Op::kAdd: R[ins.rd] = R[ins.ra] + R[ins.rb]; ++W.pc; break;
    case Op::kSub: R[ins.rd] = R[ins.ra] - R[ins.rb]; ++W.pc; break;
    case Op::kMul: R[ins.rd] = R[ins.ra] * R[ins.rb]; ++W.pc; break;
    case Op::kDiv:
      if (R[ins.rb] == 0) fail(w, "division by zero");
      R[ins.rd] = R[ins.ra] / R[ins.rb];
      ++W.pc;
      break;
    case Op::kAddi: R[ins.rd] = R[ins.ra] + ins.imm; ++W.pc; break;
    case Op::kSubi: R[ins.rd] = R[ins.ra] - ins.imm; ++W.pc; break;
    case Op::kLd: {
      const Addr a = R[ins.ra] + ins.imm;  // before rd clobbers ra (rd == ra)
      R[ins.rd] = mem(a);
      note_access(w, a, stu::kSchedAccessRead);
      ++W.pc;
      break;
    }
    case Op::kSt:
      mem(R[ins.ra] + ins.imm) = R[ins.rd];
      note_access(w, R[ins.ra] + ins.imm, stu::kSchedAccessWrite);
      ++W.pc;
      break;
    case Op::kFetchAdd: {
      const Addr a = R[ins.ra] + ins.imm;
      Word& slot = mem(a);
      R[ins.rd] = slot;
      slot += R[ins.rb];
      note_access(w, a, stu::kSchedAccessAtomic);
      ++W.pc;
      break;
    }
    case Op::kCall:
      R[kLr] = W.pc + 1;
      if (ins.target >= kBuiltinBase) {
        W.pc = R[kLr];  // builtins "return" unless they redirect control
        do_builtin(w, static_cast<int>(ins.target - kBuiltinBase));
      } else {
        W.pc = ins.target;
      }
      break;
    case Op::kCallr: {
      const Addr target = R[ins.ra];
      R[kLr] = W.pc + 1;
      if (target >= kBuiltinBase && target < kTrampBase) {
        W.pc = R[kLr];
        do_builtin(w, static_cast<int>(target - kBuiltinBase));
      } else if (target >= kTrampBase) {
        fail(w, "callr into a trampoline token");
      } else {
        W.pc = target;
      }
      break;
    }
    case Op::kJmp: W.pc = ins.target; break;
    case Op::kJr: {
      const Addr target = R[ins.ra];
      if (target >= kTrampBase) {
        take_trampoline(w, target);
      } else if (target >= kBuiltinBase) {
        fail(w, "jr into a builtin");
      } else {
        W.pc = target;
      }
      break;
    }
    case Op::kBeq: W.pc = (R[ins.ra] == R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBne: W.pc = (R[ins.ra] != R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBlt: W.pc = (R[ins.ra] < R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBge: W.pc = (R[ins.ra] >= R[ins.rb]) ? ins.target : W.pc + 1; break;
    case Op::kBltu:
      W.pc = (static_cast<std::uint64_t>(R[ins.ra]) < static_cast<std::uint64_t>(R[ins.rb]))
                 ? ins.target
                 : W.pc + 1;
      break;
    case Op::kBgeu:
      W.pc = (static_cast<std::uint64_t>(R[ins.ra]) >= static_cast<std::uint64_t>(R[ins.rb]))
                 ? ins.target
                 : W.pc + 1;
      break;
    case Op::kGetMaxE: {
      // The epilogue check's "1 load": the topmost exported frame's FP, or
      // the above-stack sentinel when the exported set is empty.
      R[ins.rd] = maxe_of(W);
      ++W.pc;
      break;
    }
    case Op::kHalt:
      result_ = R[0];
      W.halted = true;
      break;
  }
}

// ---------------------------------------------------------------------
// The baseline JIT engine (jit.hpp; DESIGN.md §5.13).
//
// exec_jit runs worker `first` with `budget`, then -- a native round --
// workers first+1..last with fresh quanta.  Native blocks run until a
// budget is spent or a cold instruction is reached; the cold instruction
// is then executed by exec_instr -- the portable switch engine IS the
// seam, so builtins, trampoline takes, halt and every fault produce the
// oracle's exact state transitions, messages and stats -- and native
// code resumes the same worker with the rest of its budget.
// Invariants:
//  - native code charges the budget once per architectural instruction,
//    before that instruction's first side effect, and a cold exit always
//    carries the pc of the *unexecuted* instruction with its budget
//    intact -- so stats_.instructions (folded from the budget deltas) and
//    per-quantum interleaving are bit-identical to the switch engine;
//  - a worker's control state -- idle/halted, pc, registers, exported
//    set (so its getmaxe sentinel) -- changes only inside its own
//    quantum, and only through the exec_instr seam: a slot filled
//    before an earlier worker's host visits stays valid, and the
//    running worker's slot is refilled at every native entry;
//  - memory_ never reallocates after construction, so the base address
//    baked into the blocks stays valid across builtins;
//  - a batch wraps from the last slot to the first only while no host
//    code has run since its first entry: every worker is then busy with
//    its slot -- maxe and poll word included -- still exact.  The first
//    host step (a cold exit or single-step) ends the batch with the
//    round it is in.
// ---------------------------------------------------------------------

std::uint64_t Vm::exec_jit(unsigned first, unsigned last, int budget,
                           std::int64_t wraps) {
  const std::int64_t code_size = static_cast<std::int64_t>(code_.size());
  const unsigned n = last - first + 1;
  for (unsigned v = first + 1; v <= last; ++v) jit_slots_[v] = jit_slot_of(v);
  std::uint64_t rounds = 1;
  unsigned w = first;
  while (!result_.has_value()) {
    auto& W = workers_[w];
    if (budget <= 0 || W.idle || W.halted) {  // worker w's quantum is over
      if (w == last) break;
      ++w;
      budget = cfg_.quantum;
      continue;
    }
    if (W.pc < 0 || W.pc >= code_size || jit_->cold_at(W.pc)) {
      // Bare cold slot (builtin call, halt, ...) or the canonical "pc out
      // of code range": single-step without the native round trip.
      --budget;
      wraps = 0;
      exec_instr(w);
      continue;
    }
    // A budget above kMaxStretch (one worker's coalesced quanta) runs as
    // several back-to-back stretches, each its own round's only slot --
    // architecturally invisible, since nothing observes the seam.
    const int stretch = budget < kMaxStretch ? budget : kMaxStretch;
    JitSlot& s = jit_slots_[w];
    s = jit_slot_of(w);
    jit_state_.regs = s.regs;
    jit_state_.budget = stretch;
    jit_state_.pc = s.pc;
    jit_state_.maxe = s.maxe;
    jit_state_.poll = s.poll;
    jit_state_.slot = &s;
    jit_state_.last = stretch < budget ? &s : &jit_slots_[last];
    jit_state_.quantum = cfg_.quantum;
    jit_state_.first = &jit_slots_[first];
    jit_state_.wraps = wraps;
    jit_->enter();
    ++jit_counters_.host_visits;
    // Rounds the stub wrapped into.  They ran no host code, so the first
    // of them consumed run()'s work_dirty_ flag; this visit is in the last.
    const std::int64_t laps = wraps - jit_state_.wraps;
    wraps = 0;
    if (laps > 0) {
      rounds += static_cast<std::uint64_t>(laps);
      work_dirty_ = false;
    }
    // Every slot the stub passed before the exiting one spent its whole
    // budget natively and left its pc in its slot.
    const auto k = static_cast<unsigned>(jit_state_.slot - jit_slots_.data());
    const std::uint64_t passes = static_cast<std::uint64_t>(laps) * n + k - w;
    int given = stretch;  // the native budget of the exiting worker
    if (passes > 0) {
      stats_.instructions += static_cast<std::uint64_t>(stretch) +
                             (passes - 1) * static_cast<std::uint64_t>(cfg_.quantum);
      for (std::uint64_t i = 0; i < std::min<std::uint64_t>(passes, n); ++i) {
        workers_[w].pc = jit_slots_[w].pc;
        w = w == last ? first : w + 1;
      }
      budget = given = cfg_.quantum;
    }
    w = k;
    const int executed = given - static_cast<int>(jit_state_.budget);
    stats_.instructions += static_cast<std::uint64_t>(executed);
    budget -= executed;
    workers_[w].pc = static_cast<Addr>(jit_state_.pc);
    if (jit_state_.exit_cold != 0 && budget > 0) {
      --budget;
      exec_instr(w);  // oracle single-step (counts its own stats/histogram)
    }
  }
  return rounds;
}

bool Vm::quanta_observed() {
  return stu::sched_recording() || stu::sched_replaying() || stu::trace_mask() != 0;
}

std::uint64_t Vm::jit_round() {
  const unsigned n = cfg_.workers;
  if (!jit_active_ || n < 2 || cfg_.quantum > kMaxStretch || quanta_observed()) {
    return 0;
  }
  const Addr code_size = static_cast<Addr>(code_.size());
  for (const auto& W : workers_) {
    if (W.idle || W.halted || W.pc < 0 || W.pc >= code_size) return 0;
  }
  // As many whole rounds as keep stats_.instructions at or below
  // max_steps, so a runaway program fails at the round the switch
  // engine's per-round check fires on (step_worker's coalescing rule).
  const std::uint64_t per_round =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(std::max(cfg_.quantum, 1));
  const std::uint64_t room =
      cfg_.max_steps > stats_.instructions ? cfg_.max_steps - stats_.instructions : 0;
  const std::uint64_t batch = std::min(room / per_round, kMaxBatch);
  const std::uint64_t rounds =
      exec_jit(0, n - 1, cfg_.quantum, batch > 1 ? static_cast<std::int64_t>(batch - 1) : 0);
  jit_counters_.native_rounds += rounds;
  return rounds;
}

void Vm::take_trampoline(unsigned w, Addr token) {
  auto it = trampolines_.find(token);
  if (it == trampolines_.end()) fail(w, "return through a dead trampoline token");
  const Trampoline t = it->second;
  trampolines_.erase(it);
  ++stats_.trampolines_taken;
  auto& W = workers_[w];
  switch (t.kind) {
    case Trampoline::Kind::kUser:
      // The invalid-frame fix (Section 3.4): restore the callee-saved
      // registers captured when restart was called.
      for (int i = 0; i < 4; ++i) W.regs[kFirstCalleeSaved + i] = t.saved[i];
      W.pc = t.ret_pc;
      break;
    case Trampoline::Kind::kScheduler:
      W.idle = true;
      W.regs[kFp] = 0;
      break;
    case Trampoline::Kind::kHalt:
      result_ = W.regs[0];
      W.halted = true;
      break;
  }
}

// ---------------------------------------------------------------------
// Builtins
// ---------------------------------------------------------------------

void Vm::do_builtin(unsigned w, int id) {
  auto& W = workers_[w];
  const Addr sp = W.regs[kSp];
  switch (id) {
    case kBAlloc:
      W.regs[0] = alloc_heap(read_mem(sp + 0));
      break;
    case kBPrint:
      output_.push_back(read_mem(sp + 0));
      break;
    case kBWorkerId:
      W.regs[0] = static_cast<Word>(w);
      break;
    case kBNumWorkers:
      W.regs[0] = static_cast<Word>(cfg_.workers);
      break;
    case kBExit:
      result_ = read_mem(sp + 0);
      W.halted = true;
      break;
    case kBForkBegin:
    case kBForkEnd:
      break;  // only reachable in unpostprocessed code; inert markers
    case kBSuspend: {
      const Addr ctx = read_mem(sp + 0);
      const Word n = read_mem(sp + 1);
      if (n < 1) fail(w, "suspend with n < 1");
      ++stats_.suspends;
      trace(stu::kTraceVmSuspend, w, static_cast<std::uint64_t>(ctx),
            static_cast<std::uint64_t>(n));
      const UnwindResult r = unwind(w, ctx, W.regs[kLr], W.regs[kFp], n);
      // Whoever later restarts ctx (possibly on another worker after a
      // steal) acquires everything this logical thread did up to here.
      note_hb_release(w, ctx);
      apply_unwind(w, r);
      break;
    }
    case kBSuspendPublish: {
      // suspend(ctx, 1) + publish the context pointer into a shared slot,
      // atomically w.r.t. other workers (the VM's builtin granularity is
      // the analog of the runtime's internal locking).
      const Addr ctx = read_mem(sp + 0);
      const Addr slot = read_mem(sp + 1);
      ++stats_.suspends;
      trace(stu::kTraceVmSuspend, w, static_cast<std::uint64_t>(ctx), 1);
      const UnwindResult r = unwind(w, ctx, W.regs[kLr], W.regs[kFp], 1);
      note_hb_release(w, ctx);
      mem(slot) = ctx;
      // The publish is atomic at builtin granularity: mark the slot a
      // synchronization cell so the Figure-8 finisher's plain-load spin
      // on it pairs with this write instead of racing it.
      note_access(w, slot, stu::kSchedAccessAtomic);
      apply_unwind(w, r);
      break;
    }
    case kBRestart: {
      const Addr ctx = read_mem(sp + 0);
      ++stats_.restarts;
      do_restart(w, ctx, W.regs[kLr], W.regs[kFp], /*from_scheduler=*/false);
      break;
    }
    case kBResume: {
      const Addr ctx = read_mem(sp + 0);
      ++stats_.resumes;
      note_hb_release(w, ctx);  // readyq/steal consumers acquire at restart
      W.readyq.push_tail(ctx);
      work_dirty_ = true;
      break;
    }
    case kBPoll: {
      const bool migrated = serve_steal(w, W.regs[kLr], W.regs[kFp], /*running=*/true);
      if (!migrated) shrink(w, W.regs[kLr]);
      break;
    }
    default:
      fail(w, "unknown builtin " + std::to_string(id));
  }
}

// ---------------------------------------------------------------------
// Frame surgery
// ---------------------------------------------------------------------

Vm::UnwindResult Vm::unwind(unsigned w, Addr ctx, Addr resume_pc, Addr fp, Word n) {
  auto& W = workers_[w];
  mem(ctx + kCtxPc) = resume_pc;
  mem(ctx + kCtxFp) = fp;
  for (int i = 0; i < 4; ++i) mem(ctx + kCtxRegs + i) = W.regs[kFirstCalleeSaved + i];

  Addr cur_pc = resume_pc;
  Addr cur_fp = fp;
  Word forks = 0;
  UnwindResult r;

  for (;;) {
    const ProcDescriptor* d = proc_of(cur_pc, "unwind");
    if (!d->has_frame) fail(w, "cannot unwind frameless procedure " + d->name);
    // Export the frame being detached (Section 5: every unwound *local*
    // frame enters the exported set -- the model's {u_i | u_i > 0}; a
    // foreign frame is already exported at its home worker, whose SP is
    // what its liveness constrains).  It is retained in place either way.
    if (is_local(w, cur_fp)) {
      W.exported.push({cur_fp, cur_fp - d->frame_size, cur_fp + d->ra_offset});
    }
    mem(ctx + kCtxBottomFp) = cur_fp;
    mem(ctx + kCtxBottomRaSlot) = cur_fp + d->ra_offset;
    mem(ctx + kCtxBottomPfpSlot) = cur_fp + d->pfp_offset;
    ++stats_.frames_unwound;

    const Addr ra = read_mem(cur_fp + d->ra_offset);
    const Addr parent_fp = read_mem(cur_fp + d->pfp_offset);
    // Pure-epilogue semantics: restore this procedure's callee-saves
    // without touching SP (the replica code emitted by the postprocessor
    // does exactly these loads; tests check the replica matches).
    for (std::size_t k = 0; k < d->saved_regs.size(); ++k) {
      W.regs[d->saved_regs[k]] = read_mem(cur_fp + d->saved_offsets[k]);
    }

    bool was_fork = false;
    Addr next_pc = 0;
    if (ra >= kTrampBase) {
      auto it = trampolines_.find(ra);
      if (it == trampolines_.end()) fail(w, "unwind through a dead trampoline");
      const Trampoline t = it->second;
      trampolines_.erase(it);
      for (int i = 0; i < 4; ++i) W.regs[kFirstCalleeSaved + i] = t.saved[i];
      was_fork = t.is_fork;
      if (t.kind == Trampoline::Kind::kHalt) fail(w, "suspend unwound past the main thread");
      if (t.kind == Trampoline::Kind::kScheduler) {
        if (was_fork) ++forks;
        if (forks >= n) {
          r.reached_scheduler = true;
          if (stu::metrics_enabled()) exported_depth_.record(W.exported.size());
          return r;
        }
        fail(w, "suspend unwound past the scheduler");
      }
      next_pc = t.ret_pc;
    } else {
      if (ra == 0) fail(w, "unwind through a retired frame");
      const ProcDescriptor* pd = proc_of(ra, "unwind parent");
      was_fork = is_fork_point(pd, ra - 1);
      next_pc = ra;
    }
    cur_pc = next_pc;
    cur_fp = parent_fp;
    if (was_fork) {
      ++forks;
      if (forks >= n) break;
    }
  }
  r.resume_pc = cur_pc;
  r.fp = cur_fp;
  if (stu::metrics_enabled()) exported_depth_.record(W.exported.size());
  return r;
}

void Vm::apply_unwind(unsigned w, const UnwindResult& r) {
  auto& W = workers_[w];
  if (r.reached_scheduler) {
    W.idle = true;
    W.regs[kFp] = 0;
    return;
  }
  W.pc = r.resume_pc;
  W.regs[kFp] = r.fp;
  W.regs[0] = 0;  // the fork "returns" without a value when the child blocks
  extend_if_needed(w, r.resume_pc);
}

void Vm::do_restart(unsigned w, Addr ctx, Addr ret_pc, Addr f_fp, bool from_scheduler) {
  auto& W = workers_[w];
  work_dirty_ = true;
  trace(stu::kTraceVmRestart, w, static_cast<std::uint64_t>(ctx),
        from_scheduler ? 1 : 0);
  // Every path a continuation travels (readyq pop, steal reply, Figure-9
  // migration, user restart) funnels through here: pair the suspender's
  // release so the restarting worker inherits its history.
  note_hb_acquire(w, ctx);
  const Addr bottom_fp = read_mem(ctx + kCtxBottomFp);
  const Addr ra_slot = read_mem(ctx + kCtxBottomRaSlot);
  const Addr pfp_slot = read_mem(ctx + kCtxBottomPfpSlot);

  Trampoline t;
  t.owner = w;
  for (int i = 0; i < 4; ++i) t.saved[i] = W.regs[kFirstCalleeSaved + i];
  if (from_scheduler) {
    t.kind = Trampoline::Kind::kScheduler;
    t.is_fork = true;  // ST_THREAD_CREATE(restart(...)) in Figure 12
  } else {
    t.kind = Trampoline::Kind::kUser;
    t.ret_pc = ret_pc;
    const ProcDescriptor* pd = proc_of(ret_pc, "restart caller");
    t.is_fork = is_fork_point(pd, ret_pc - 1);
  }
  // The Figure 7 slot surgery: make the chain bottom look as if it had
  // been called from the restarter.
  mem(ra_slot) = make_trampoline(t);
  mem(pfp_slot) = from_scheduler ? 0 : f_fp;

  // First Section 5.3 subtlety: export the restarter's frame when it is
  // physically above the chain bottom within this stack (or the bottom is
  // foreign) -- otherwise a later shrink could discard it.
  if (!from_scheduler && is_local(w, f_fp) &&
      (!is_local(w, bottom_fp) || f_fp < bottom_fp)) {
    const ProcDescriptor* fd = proc_of(ret_pc, "restarter frame");
    W.exported.push({f_fp, f_fp - fd->frame_size, f_fp + fd->ra_offset});
  }

  for (int i = 0; i < 4; ++i) W.regs[kFirstCalleeSaved + i] = read_mem(ctx + kCtxRegs + i);
  W.regs[kFp] = read_mem(ctx + kCtxFp);
  W.pc = read_mem(ctx + kCtxPc);
  W.regs[0] = 0;  // the resumed suspend call returns 0
  W.idle = false;
  extend_if_needed(w, W.pc);
}

bool Vm::serve_steal(unsigned w, Addr resume_pc, Addr fp, bool running) {
  auto& W = workers_[w];
  if (W.steal_request_from < 0) return false;
  const int thief = W.steal_request_from;
  W.steal_request_from = -1;
  work_dirty_ = true;  // a reply (even a rejection) is posted below
  auto& T = workers_[static_cast<std::size_t>(thief)];

  // Figure 12: hand out the readyq tail when there is one.
  if (!W.readyq.empty()) {
    T.steal_reply = W.readyq.pop_tail();
    ++stats_.steals_served;
    return false;
  }
  if (running) {
    const Word forks = count_forks(resume_pc, fp);
    if (forks >= 2) {
      // Figure 9: pull the bottom-most thread out of the logical stack --
      // suspend everything above it, suspend it, hand it over, restart
      // the rest.  Control ends up exactly where poll was called.
      const Addr c1 = alloc_heap(kCtxWords);
      const Addr c2 = alloc_heap(kCtxWords);
      ++stats_.suspends;
      const UnwindResult s1 = unwind(w, c1, resume_pc, fp, forks - 1);
      ++stats_.suspends;
      const UnwindResult s2 = unwind(w, c2, s1.resume_pc, s1.fp, 1);
      note_hb_release(w, c2);  // the thief acquires at its do_restart
      T.steal_reply = c2;
      ++stats_.steals_served;
      ++stats_.restarts;
      trace(stu::kTraceVmMigrate, w, static_cast<std::uint64_t>(c2),
            static_cast<std::uint64_t>(thief));
      do_restart(w, c1, s2.resume_pc, s2.fp, s2.reached_scheduler);
      return true;
    }
  }
  T.steal_reply = kRejected;
  ++stats_.steals_rejected;
  return false;
}

Word Vm::count_forks(Addr resume_pc, Addr fp) const {
  Word forks = 0;
  Addr pc = resume_pc;
  Addr f = fp;
  for (;;) {
    const ProcDescriptor* d = table_.find(pc);
    if (d == nullptr || !d->has_frame) break;
    const Addr ra = read_mem(f + d->ra_offset);
    const Addr pf = read_mem(f + d->pfp_offset);
    if (ra >= kTrampBase) {
      auto it = trampolines_.find(ra);
      if (it == trampolines_.end()) break;
      if (it->second.is_fork) ++forks;
      if (it->second.kind != Trampoline::Kind::kUser) break;  // scheduler/halt
      pc = it->second.ret_pc;
    } else {
      if (ra == 0) break;
      const ProcDescriptor* pd = table_.find(ra);
      if (is_fork_point(pd, ra - 1)) ++forks;
      pc = ra;
    }
    f = pf;
  }
  return forks;
}

void Vm::shrink(unsigned w, Addr cur_pc) {
  auto& W = workers_[w];
  std::uint64_t popped_count = 0;
  while (!W.exported.empty() && read_mem(W.exported.max().ra_slot) == 0) {
    W.exported.pop_max();
    ++stats_.shrink_reclaimed;
    ++popped_count;
  }
  if (popped_count == 0) return;
  trace(stu::kTraceVmShrink, w, popped_count);

  const bool have_f1 = !W.idle && cur_pc >= 0 && is_local(w, W.regs[kFp]);
  const Addr max_e_fp = W.exported.empty() ? kAddrMax : W.exported.max().fp;
  if (have_f1 && W.regs[kFp] <= max_e_fp) {
    // The current frame is the (weakly) topmost live frame: SP goes to its
    // natural top; no extension needed.
    const ProcDescriptor* d = proc_of(cur_pc, "shrink");
    if (d->has_frame) {
      W.regs[kSp] = W.regs[kFp] - d->frame_size;
      return;
    }
  }
  if (!W.exported.empty()) {
    W.regs[kSp] = W.exported.max().top;
    extend_if_needed(w, cur_pc);  // the exported frame owns the top now
  } else if (!have_f1) {
    W.regs[kSp] = W.stack_hi;  // everything reclaimed
  }
}

void Vm::extend_if_needed(unsigned w, Addr cur_pc) {
  auto& W = workers_[w];
  const Addr sp = W.regs[kSp];
  // Prune stale extension marks above the current top.
  for (auto it = W.extended_sps.begin(); it != W.extended_sps.end();) {
    it = (*it < sp) ? W.extended_sps.erase(it) : std::next(it);
  }
  if (W.extended_sps.count(sp) != 0) return;  // already extended here
  // Does the executing frame own the physical top?  Then no extension is
  // required (Invariant 2 is vacuous).
  if (cur_pc >= 0 && is_local(w, W.regs[kFp])) {
    const ProcDescriptor* d = table_.find(cur_pc);
    if (d != nullptr && d->has_frame && W.regs[kFp] - d->frame_size == sp) return;
  }
  if (max_args_ <= 0) return;
  W.regs[kSp] = sp - max_args_;
  W.extended_sps.insert(W.regs[kSp]);
}

// ---------------------------------------------------------------------
// Introspection / metrics
// ---------------------------------------------------------------------

std::string Vm::dump_logical_stacks() const {
  constexpr int kMaxFrames = 64;
  std::ostringstream os;
  os << "== stvm logical-stack dump: " << cfg_.workers << " worker(s) ==\n";

  // Frame chain walk via the descriptor table -- the introspective twin
  // of count_forks().  Read-only and bounds-checked: a corrupted chain
  // ends the walk instead of faulting.
  auto walk = [&](unsigned w, Addr pc, Addr fp, const char* label) {
    const auto& W = workers_[w];
    os << "  " << label << " chain (newest first):\n";
    int depth = 0;
    for (;;) {
      if (++depth > kMaxFrames) {
        os << "    ... (truncated at " << kMaxFrames << " frames)\n";
        return;
      }
      const ProcDescriptor* d = table_.find(pc);
      if (d == nullptr) {
        os << "    <no descriptor for pc=" << pc << ">\n";
        return;
      }
      if (!d->has_frame) {
        os << "    " << d->name << " (frameless) pc=" << pc << "\n";
        return;
      }
      if (fp < 1 || fp + std::max(d->ra_offset, d->pfp_offset) >=
                        static_cast<Addr>(memory_.size())) {
        os << "    " << d->name << " fp=" << fp << " <fp out of range>\n";
        return;
      }
      const Addr ra = read_mem(fp + d->ra_offset);
      // Section-5 classification of this frame.
      const char* cls = "active";
      if (ra == 0) {
        cls = "R (retired)";
      } else {
        for (const auto& e : W.exported.raw()) {
          if (e.fp == fp) {
            cls = "E (exported)";
            break;
          }
        }
      }
      os << "    " << d->name << " fp=" << fp << " [" << cls << "]";
      if (ra >= kTrampBase) {
        auto it = trampolines_.find(ra);
        if (it == trampolines_.end()) {
          os << " -> <dead trampoline>\n";
          return;
        }
        const Trampoline& t = it->second;
        if (t.is_fork) os << " <- fork point";
        if (t.kind == Trampoline::Kind::kScheduler) {
          os << " <- scheduler (thread root)\n";
          return;
        }
        if (t.kind == Trampoline::Kind::kHalt) {
          os << " <- main (halt)\n";
          return;
        }
        os << "\n";
        pc = t.ret_pc;
      } else {
        if (ra == 0) {
          os << "\n";
          return;  // retired: the chain ends here for the walk
        }
        const ProcDescriptor* pd = table_.find(ra);
        if (is_fork_point(pd, ra - 1)) os << " <- fork point";
        os << "\n";
        pc = ra;
      }
      fp = read_mem(fp + d->pfp_offset);
    }
  };

  for (unsigned w = 0; w < cfg_.workers; ++w) {
    const auto& W = workers_[w];
    std::size_t retired = 0;
    for (const auto& e : W.exported.raw()) {
      if (e.ra_slot < static_cast<Addr>(memory_.size()) && read_mem(e.ra_slot) == 0) {
        ++retired;
      }
    }
    os << "worker " << w << ": " << (W.halted ? "halted" : W.idle ? "idle" : "running")
       << " pc=" << W.pc << " sp=" << W.regs[kSp] << " fp=" << W.regs[kFp]
       << " E=" << (W.exported.size() - retired) << " R=" << retired
       << " X=" << W.extended_sps.size() << " readyq=" << W.readyq.size() << "\n";
    if (!W.idle && !W.halted) walk(w, W.pc, W.regs[kFp], "running");
    for (std::size_t i = 0; i < W.readyq.size(); ++i) {
      const Addr ctx = W.readyq.peek(i);
      if (ctx + kCtxWords >= static_cast<Addr>(memory_.size())) continue;
      os << "  ready[" << i << "] ctx=" << ctx << ":\n";
      walk(w, read_mem(ctx + kCtxPc), read_mem(ctx + kCtxFp), "suspended");
    }
    for (const auto& e : W.exported.raw()) {
      const bool ret = e.ra_slot < static_cast<Addr>(memory_.size()) &&
                       read_mem(e.ra_slot) == 0;
      os << "  exported frame fp=" << e.fp << " top=" << e.top
         << " [" << (ret ? "R (retired, awaiting shrink)" : "E (exported/live)")
         << "]\n";
    }
  }
  return os.str();
}

std::string Vm::metrics_json() const {
  std::ostringstream os;
  os << "{\"kind\":\"stvm\",\"workers\":" << cfg_.workers << ","
     << "\"dispatch\":\"" << (jit_active_ ? "jit" : "switch") << "\","
     << "\"counters\":{";
  const char* sep = "";
  stats_.for_each([&](const char* key, std::uint64_t v) {
    os << sep << '"' << key << "\":" << v;
    sep = ",";
  });
  os << "},";
  if (jit_active_) {
    os << "\"jit\":{\"native_rounds\":" << jit_counters_.native_rounds
       << ",\"host_visits\":" << jit_counters_.host_visits << "},";
  }
  os << "\"per_worker\":[";
  for (unsigned w = 0; w < cfg_.workers; ++w) {
    const auto& W = workers_[w];
    std::size_t retired = 0;
    for (const auto& e : W.exported.raw()) {
      if (e.ra_slot < static_cast<Addr>(memory_.size()) && read_mem(e.ra_slot) == 0) {
        ++retired;
      }
    }
    os << (w ? "," : "") << "{\"id\":" << w << ",\"state\":\""
       << (W.halted ? "halted" : W.idle ? "idle" : "running") << "\""
       << ",\"sets\":{\"E\":" << (W.exported.size() - retired) << ",\"R\":" << retired
       << ",\"X\":" << W.extended_sps.size() << "}"
       << ",\"readyq\":" << W.readyq.size() << "}";
  }
  os << "],";
  os << "\"opcodes\":[";
  bool first = true;
  for (int i = 0; i < kNumRunOps; ++i) {
    const std::uint64_t n = op_retired_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    os << (first ? "" : ",") << "{\"op\":\"" << run_op_name(static_cast<RunOp>(i))
       << "\",\"retired\":" << n << "}";
    first = false;
  }
  os << "],";
  os << "\"histograms\":["
     << exported_depth_.snapshot().to_json("exported_depth", "frames") << "]}";
  return os.str();
}

}  // namespace stvm
