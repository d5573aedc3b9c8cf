// st_replay: schedule-log tooling for the record/replay layer
// (util/sched_log.hpp, docs/OBSERVABILITY.md).
//
//   st_replay lint   <log.sched>                 structural validation
//   st_replay dump   <log.sched> [--limit N]     human-readable listing
//   st_replay record  --out L [run opts]         record a builtin STVM run
//   st_replay replay  --log L [--times N] [...]  replay N times, assert
//                                                bit-identical trace digests
//   st_replay mutate  --log L --out M [--op slide|swap] [--at K]
//   st_replay shrink  --log L --out S [run opts] minimal failing prefix
//   st_replay explore [--budget N] [--strategy dpor|random] [--seed S]
//                     [--expect V] [--out L] [--stats J]
//                     [--must-find|--must-not-find] [run opts]
//                     partial-order schedule exploration (docs/ANALYSIS.md)
//   st_replay selftest [--out artifact]          record -> mutate -> replay
//                                                -> shrink, end to end
//
// Run opts: --program fib|pfib|psum|racy|clean  --n N  --workers W
//           --quantum Q  --dispatch switch|jit
//
// `explore` hunts for schedules that change the program's result (or
// crash the VM).  The DPOR strategy records an annotated baseline, runs
// the happens-before analyzer (src/analysis/hb.hpp) over it, and for
// every racy pair derives a *reversal*: a forced schedule prefix
// identical to the parent run up to the first access's quantum, that
// quantum cut one instruction short of the access, then one oversized
// quantum handing the other worker exactly enough instructions to
// retire its conflicting access first.  Each explored run re-records
// its complete schedule (replay+record), is deduplicated by schedule
// digest (the HB graph's interleaving-equivalence key) and re-analyzed,
// so reversals compose across rounds when a bug needs several.  The
// random strategy mutates the baseline log blindly with a seeded rng:
// the control the acceptance bar measures DPOR against (same budget, no
// HB guidance).
//
// The STVM runs on one OS thread, so a replayed log forces a bit-exact
// architectural schedule: `replay` asserts equal results, VmStats and
// trace digests across repetitions, and `shrink` binary-searches the
// shortest log prefix whose forced replay still diverges from the
// free-run baseline digest (replaying a prefix of an *unmutated* log
// reproduces the baseline exactly -- every forced decision equals the
// natural one -- so the predicate flips at the mutated decision and the
// search is sound).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/hb.hpp"
#include "stvm/programs.hpp"
#include "stvm/vm.hpp"
#include "util/rng.hpp"
#include "util/sched_log.hpp"
#include "util/trace_export.hpp"
#include "util/trace_ring.hpp"

namespace {

struct RunOpts {
  std::string program = "pfib";
  long n = 10;
  unsigned workers = 3;
  int quantum = 7;
  stvm::VmConfig::Dispatch dispatch = stvm::VmConfig::Dispatch::kSwitch;
};

struct RunOutcome {
  stvm::Word result = 0;
  stvm::VmStats stats;
  std::uint64_t digest = 0;
};

struct Builtin {
  const std::string& (*source)();
  const char* entry;
};

const std::map<std::string, Builtin>& builtins() {
  static const std::map<std::string, Builtin> b = {
      {"fib", {stvm::programs::fib, "main"}},
      {"pfib", {stvm::programs::pfib, "pmain"}},
      {"psum", {stvm::programs::psum, "psum_main"}},
      {"racy", {stvm::programs::racy, "racy_main"}},
      {"clean", {stvm::programs::racy, "clean_main"}},
  };
  return b;
}

/// One VM run under whatever sched mode is currently set.  Tracing is
/// forced on (the digest is computed from the VM's own ring, before the
/// destructor flushes it to the global sink).
RunOutcome run_once(const RunOpts& o) {
  const auto it = builtins().find(o.program);
  if (it == builtins().end()) {
    std::fprintf(stderr, "unknown program '%s' (fib|pfib|psum|racy|clean)\n",
                 o.program.c_str());
    std::exit(2);
  }
  stu::trace_set_mask(stu::kTraceAll);
  // Shrink replays the program hundreds of times; assemble it once.
  static std::map<std::string, stvm::PostprocResult> cache;
  auto cached = cache.find(o.program);
  if (cached == cache.end()) {
    cached = cache.emplace(o.program,
                           stvm::programs::compile(it->second.source())).first;
  }
  const stvm::PostprocResult& prog = cached->second;
  stvm::VmConfig cfg;
  cfg.workers = o.workers;
  cfg.quantum = o.quantum;
  cfg.dispatch = o.dispatch;
  stvm::Vm vm(prog, cfg);
  RunOutcome out;
  out.result = vm.run(it->second.entry, {static_cast<stvm::Word>(o.n)});
  out.stats = vm.stats();
  out.digest = stu::trace_schedule_digest(vm.trace_ring().snapshot());
  return out;
}

RunOutcome run_free(const RunOpts& o) {
  stu::sched_set_off();
  return run_once(o);
}

RunOutcome run_replay(const RunOpts& o, const std::vector<stu::SchedDecision>& log) {
  stu::sched_set_replay(log);
  RunOutcome out = run_once(o);
  stu::sched_set_off();
  return out;
}

std::vector<stu::SchedDecision> run_record(const RunOpts& o, RunOutcome* outcome) {
  stu::sched_set_record();
  RunOutcome out = run_once(o);
  stu::sched_set_off();
  if (outcome != nullptr) *outcome = out;
  return stu::sched_take_recorded();
}

std::vector<stu::SchedDecision> load_or_die(const std::string& path) {
  std::vector<stu::SchedDecision> log;
  std::string err;
  std::uint32_t version = 0;
  if (!stu::sched_read_file(path, &log, &err, &version)) {
    std::fprintf(stderr, "st_replay: %s: %s\n", path.c_str(), err.c_str());
    std::exit(2);
  }
  // Version-gated lint: a stmp-sched-v1 file containing v2 kinds (domain
  // / batch) is a mixed-version artifact and is rejected with a clear
  // message rather than replayed into silent FIFO misalignment.
  if (!stu::sched_lint(log, &err, version)) {
    std::fprintf(stderr, "st_replay: %s: lint: %s\n", path.c_str(), err.c_str());
    std::exit(2);
  }
  return log;
}

void save_or_die(const std::string& path, const std::vector<stu::SchedDecision>& log) {
  std::string err;
  if (!stu::sched_write_file(path, log, &err)) {
    std::fprintf(stderr, "st_replay: cannot write %s: %s\n", path.c_str(),
                 err.c_str());
    std::exit(2);
  }
}

// ---------------------------------------------------------------------
// Mutation: one decision changed, everything else intact.
// ---------------------------------------------------------------------

/// slide: halve the instruction count of the --at'th kSchedQuantum
/// decision (moving that preemption earlier); victim decisions rotate to
/// the next worker instead.  swap: exchange the payloads of the --at'th
/// decision and the next decision of the same (src, worker, kind) --
/// i.e. reorder two adjacent choices made by one decision slot.
bool mutate_log(std::vector<stu::SchedDecision>& log, const std::string& op,
                std::size_t at, unsigned workers) {
  if (log.empty()) return false;
  if (at >= log.size()) at = log.size() / 2;
  if (op == "swap") {
    for (std::size_t j = at + 1; j < log.size(); ++j) {
      if (log[j].kind == log[at].kind && log[j].worker == log[at].worker &&
          log[j].src == log[at].src) {
        std::swap(log[at].a, log[j].a);
        std::swap(log[at].b, log[j].b);
        return log[at].a != log[j].a || log[at].b != log[j].b;
      }
    }
    return false;
  }
  // slide
  stu::SchedDecision& d = log[at];
  if (d.kind == stu::kSchedQuantum) {
    if (d.a <= 1) return false;
    d.a = d.a / 2;
    return true;
  }
  if (d.kind == stu::kSchedVictim && d.a != stu::kSchedNoVictim && workers > 1) {
    std::uint64_t v = (d.a + 1) % workers;
    if (v == d.worker) v = (v + 1) % workers;
    if (v == d.a) return false;
    d.a = v;
    return true;
  }
  return false;
}

/// Finds a mutation (preferring quantum slides near the middle) whose
/// effect is *immediate*: both the full mutated log and the log
/// truncated right after the mutated decision must replay to a digest
/// different from `baseline`.  The immediacy requirement matters: a
/// lone perturbation can "wash out" -- change nothing observable until
/// later forced decisions drift -- which leaves nothing for a prefix
/// shrink to find.  Returns the mutated log and the index mutated, or
/// an empty log if no candidate qualifies.
std::vector<stu::SchedDecision> find_failing_mutation(
    const RunOpts& o, const std::vector<stu::SchedDecision>& log,
    std::uint64_t baseline, std::size_t* mutated_at) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if ((log[i].kind == stu::kSchedQuantum && log[i].a > 1) ||
        (log[i].kind == stu::kSchedVictim && log[i].a != stu::kSchedNoVictim)) {
      candidates.push_back(i);
    }
  }
  // Middle-out order: mutations near the middle leave a meaningful
  // prefix for shrink to find.
  std::vector<std::size_t> order;
  const std::size_t mid = candidates.size() / 2;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const std::size_t off = (k + 1) / 2;
    const std::size_t idx = (k % 2 == 0) ? mid + off : mid - off;
    if (idx < candidates.size()) order.push_back(candidates[idx]);
  }
  for (const std::size_t at : order) {
    std::vector<stu::SchedDecision> m = log;
    if (!mutate_log(m, "slide", at, o.workers)) continue;
    if (run_replay(o, m).digest == baseline) continue;
    const std::vector<stu::SchedDecision> trunc(
        m.begin(), m.begin() + static_cast<std::ptrdiff_t>(at + 1));
    if (run_replay(o, trunc).digest == baseline) continue;
    if (mutated_at != nullptr) *mutated_at = at;
    return m;
  }
  return {};
}

// ---------------------------------------------------------------------
// Shrink: minimal failing prefix.
// ---------------------------------------------------------------------

/// Gallop/scan for the first failing prefix length under an arbitrary
/// predicate.  P is false on short prefixes and true on the full log,
/// but NOT monotone in between (a longer prefix can drift back onto a
/// passing schedule), so bracket the first failure by doubling and scan
/// the bracket forward.  The result is always a failing prefix whose
/// predecessor-in-bracket passes; it is the global minimum whenever
/// every prefix below that minimum passes (true by construction for a
/// log prefix up to a single mutation).
template <typename Fails>
std::size_t shrink_first_failing(std::size_t size, Fails fails) {
  std::size_t lo = 0;  // largest known-passing length
  std::size_t hi = 1;
  while (hi < size && !fails(hi)) {
    lo = hi;
    hi = hi * 2 < size ? hi * 2 : size;
  }
  // First failure lies in (lo, hi] if anywhere; the bracket bound is the
  // one probed point, so scan the interior exactly.
  for (std::size_t k = lo + 1; k <= hi; ++k) {
    if (fails(k)) return k;
  }
  return size;
}

std::size_t shrink_prefix(const RunOpts& o, const std::vector<stu::SchedDecision>& log,
                          std::uint64_t baseline) {
  // P(K) := digest(replay(log[0..K))) != baseline.  Prefixes of an
  // unmutated log replay to the baseline exactly (every forced decision
  // equals the natural one), so P is false up to the first bad decision.
  return shrink_first_failing(log.size(), [&](std::size_t k) {
    const std::vector<stu::SchedDecision> prefix(
        log.begin(), log.begin() + static_cast<std::ptrdiff_t>(k));
    return run_replay(o, prefix).digest != baseline;
  });
}

// ---------------------------------------------------------------------
// Explore: HB-guided partial-order schedule enumeration.
// ---------------------------------------------------------------------

/// One explored execution: annotation on, the candidate prefix forced
/// back (replay+record), the complete schedule the run actually took
/// re-recorded.  A VmError (assertion, deadlock, memory fault) is a
/// reportable outcome here, not a tool failure.
struct ExploreRun {
  RunOutcome out;
  bool error = false;
  std::string error_msg;
  std::vector<stu::SchedDecision> recorded;
  std::uint64_t sched_digest = 0;  ///< interleaving-equivalence key
};

ExploreRun run_explore_once(const RunOpts& o,
                            const std::vector<stu::SchedDecision>* forced) {
  stu::sched_set_annotate(true);
  if (forced != nullptr) {
    stu::sched_set_replay_record(*forced);
  } else {
    stu::sched_set_record();
  }
  ExploreRun r;
  try {
    r.out = run_once(o);
  } catch (const stvm::VmError& e) {
    r.error = true;
    r.error_msg = e.what();
  }
  r.recorded = stu::sched_take_recorded();
  stu::sched_set_annotate(false);
  stu::sched_set_off();
  r.sched_digest = stu::sched_schedule_digest(r.recorded);
  return r;
}

bool is_annotation(const stu::SchedDecision& d) {
  return d.kind == stu::kSchedAccess || d.kind == stu::kSchedHbRelease ||
         d.kind == stu::kSchedHbAcquire;
}

/// Derives the pair-reversal candidates of one explored run.  For a
/// racy pair (e1, e2) -- e1 executed first -- the candidate forces the
/// run's own schedule up to e1's quantum, cuts that quantum one
/// instruction short of e1, then hands e2's worker a single quantum
/// long enough to retire *through* e2.  That executes e2 before e1: the
/// happens-before reversal sleep-set DPOR enumerates, realized as
/// quantum surgery.  (A bare cut cannot reverse anything: round-robin
/// resumes the cut worker after one default quantum, so its access
/// still lands first.)
///
/// The access `aux` is the VM's *global* retired-instruction count and
/// the VM is strictly round-robin on one OS thread, so the cumulative
/// sum of kSchedQuantum lengths in seq order locates each access's
/// enclosing quantum and its offset inside it; per-worker cumulative
/// sums convert that into the extension length e2's worker needs.
/// Candidates are deduplicated by prefix digest across the whole
/// exploration (`seen`).
struct ExploreStats {
  std::size_t generated = 0;
  std::size_t duplicates = 0;
  std::size_t races = 0;
};

void derive_reversal_candidates(const std::vector<stu::SchedDecision>& log,
                                const sta::HbReport& hb, std::set<std::uint64_t>& seen,
                                std::deque<std::vector<stu::SchedDecision>>& frontier,
                                ExploreStats& st) {
  st.races += hb.races.size();
  // Quantum index: global [start, end] instruction range plus the
  // worker-local retired count before each quantum, in seq order.
  struct QSpan {
    stu::SchedDecision d;
    std::uint64_t gstart = 0;
    std::uint64_t local_before = 0;
  };
  std::vector<QSpan> quanta;
  std::map<std::uint16_t, std::uint64_t> local;
  std::uint64_t retired = 0;
  for (const stu::SchedDecision& d : log) {
    if (d.kind != stu::kSchedQuantum || d.src != stu::kTraceSrcStvm) continue;
    quanta.push_back({d, retired, local[d.worker]});
    retired += d.a;
    local[d.worker] += d.a;
  }
  // Enclosing-quantum lookup for an access: its worker's quantum whose
  // global range covers the access's retired-count position.
  const auto find_span = [&](const stu::SchedDecision& e) -> const QSpan* {
    const std::uint64_t aux = sta::hb_access_aux(e);
    for (const QSpan& q : quanta) {
      if (q.d.worker == e.worker && q.gstart < aux && aux <= q.gstart + q.d.a) {
        return &q;
      }
    }
    return nullptr;
  };
  for (const sta::HbRace& race : hb.races) {
    const stu::SchedDecision& e1 = race.first;
    const stu::SchedDecision& e2 = race.second;
    if (e1.kind != stu::kSchedAccess || e1.src != stu::kTraceSrcStvm) continue;
    if (e2.kind != stu::kSchedAccess || e2.src != stu::kTraceSrcStvm) continue;
    if (e1.worker == e2.worker) continue;
    const QSpan* q1 = find_span(e1);
    const QSpan* q2 = find_span(e2);
    if (q1 == nullptr || q2 == nullptr) continue;
    // Cut e1's quantum one instruction short of e1 (aux is 1-based at
    // the access).  A zero budget means e1 already heads its quantum:
    // then the prefix simply ends before it and no cut is needed.
    const std::uint64_t budget = sta::hb_access_aux(e1) - 1 - q1->gstart;
    // Worker-local retired count e2's worker had reached when q1 began,
    // and the local position that retires e2 itself; the difference is
    // the forced extension.  e2 follows e1 in seq order, so it is
    // strictly ahead of the cut point.
    std::uint64_t local_at_cut = 0;
    for (const QSpan& q : quanta) {
      if (q.d.seq >= q1->d.seq) break;
      if (q.d.worker == e2.worker) local_at_cut = q.local_before + q.d.a;
    }
    const std::uint64_t target = q2->local_before + (sta::hb_access_aux(e2) - q2->gstart);
    if (target <= local_at_cut) continue;  // already ahead: parent order
    std::vector<stu::SchedDecision> prefix;
    for (const stu::SchedDecision& e : log) {
      if (e.seq >= q1->d.seq) break;
      if (is_annotation(e)) continue;  // observations, not decisions
      prefix.push_back(e);
    }
    if (budget > 0) {
      stu::SchedDecision cut = q1->d;
      cut.a = budget;
      prefix.push_back(cut);
    }
    stu::SchedDecision ext{};
    ext.seq = prefix.empty() ? 1 : prefix.back().seq + 1;
    ext.kind = stu::kSchedQuantum;
    ext.worker = e2.worker;
    ext.src = stu::kTraceSrcStvm;
    ext.a = target - local_at_cut;
    prefix.push_back(ext);
    if (seen.insert(stu::sched_schedule_digest(prefix)).second) {
      frontier.push_back(std::move(prefix));
      ++st.generated;
    } else {
      ++st.duplicates;
    }
  }
}

/// The random control: perturb the baseline's decisions blindly with a
/// seeded rng (1-3 mutations per trial; quantum cut to a random shorter
/// budget, victim rotated).  Same replay+record execution, no HB
/// guidance -- the acceptance comparison for the DPOR strategy.
std::vector<stu::SchedDecision> random_mutant(
    const std::vector<stu::SchedDecision>& base, unsigned workers,
    stu::Xoshiro256& rng) {
  std::vector<std::size_t> mutable_idx;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if ((base[i].kind == stu::kSchedQuantum && base[i].a > 1) ||
        (base[i].kind == stu::kSchedVictim && base[i].a != stu::kSchedNoVictim &&
         workers > 1)) {
      mutable_idx.push_back(i);
    }
  }
  std::vector<stu::SchedDecision> m = base;
  if (mutable_idx.empty()) return m;
  const std::size_t count = 1 + static_cast<std::size_t>(rng.below(3));
  for (std::size_t k = 0; k < count; ++k) {
    stu::SchedDecision& d = m[mutable_idx[rng.below(mutable_idx.size())]];
    if (d.kind == stu::kSchedQuantum) {
      if (d.a > 1) d.a = 1 + rng.below(d.a - 1);
    } else {
      std::uint64_t v = (d.a + 1 + rng.below(workers)) % workers;
      if (v == d.worker) v = (v + 1) % workers;
      d.a = v;
    }
  }
  return m;
}

// ---------------------------------------------------------------------
// Argument parsing / subcommands
// ---------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: st_replay <lint|dump|record|replay|mutate|shrink|explore|selftest>\n"
               "  lint <log>\n"
               "  dump <log> [--limit N]\n"
               "  record --out <log> [run opts]\n"
               "  replay --log <log> [--times N] [run opts]\n"
               "  mutate --log <log> --out <log> [--op slide|swap] [--at K]\n"
               "  shrink --log <log> --out <log> [run opts]\n"
               "  explore [--budget N] [--strategy dpor|random] [--seed S]\n"
               "          [--expect V] [--out <log>] [--stats <json>]\n"
               "          [--must-find|--must-not-find] [run opts]\n"
               "  selftest [--out <artifact>]\n"
               "run opts: --program fib|pfib|psum|racy|clean --n N --workers W\n"
               "          --quantum Q --dispatch switch|jit\n");
  return 2;
}

struct Args {
  RunOpts run;
  std::string log, out, op = "slide";
  std::size_t at = static_cast<std::size_t>(-1);
  int times = 3;
  std::size_t limit = 40;
  std::string positional;
  // explore
  std::size_t budget = 64;
  std::string strategy = "dpor";
  std::uint64_t seed = 1;
  bool has_expect = false;
  long expect = 0;
  std::string stats;
  bool must_find = false;
  bool must_not_find = false;
};

bool parse(int argc, char** argv, int first, Args* a) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--log" && (v = next())) a->log = v;
    else if (arg == "--out" && (v = next())) a->out = v;
    else if (arg == "--op" && (v = next())) a->op = v;
    else if (arg == "--at" && (v = next())) a->at = std::strtoull(v, nullptr, 0);
    else if (arg == "--times" && (v = next())) a->times = std::atoi(v);
    else if (arg == "--limit" && (v = next())) a->limit = std::strtoull(v, nullptr, 0);
    else if (arg == "--budget" && (v = next())) a->budget = std::strtoull(v, nullptr, 0);
    else if (arg == "--strategy" && (v = next())) a->strategy = v;
    else if (arg == "--seed" && (v = next())) a->seed = std::strtoull(v, nullptr, 0);
    else if (arg == "--expect" && (v = next())) { a->has_expect = true; a->expect = std::atol(v); }
    else if (arg == "--stats" && (v = next())) a->stats = v;
    else if (arg == "--must-find") a->must_find = true;
    else if (arg == "--must-not-find") a->must_not_find = true;
    else if (arg == "--program" && (v = next())) a->run.program = v;
    else if (arg == "--n" && (v = next())) a->run.n = std::atol(v);
    else if (arg == "--workers" && (v = next())) a->run.workers = static_cast<unsigned>(std::atoi(v));
    else if (arg == "--quantum" && (v = next())) a->run.quantum = std::atoi(v);
    else if (arg == "--dispatch" && (v = next()) &&
             (std::strcmp(v, "switch") == 0 || std::strcmp(v, "jit") == 0)) {
      a->run.dispatch = std::strcmp(v, "jit") == 0 ? stvm::VmConfig::Dispatch::kJit
                                                   : stvm::VmConfig::Dispatch::kSwitch;
    } else if (!arg.empty() && arg[0] != '-' && a->positional.empty()) {
      a->positional = arg;
    } else {
      std::fprintf(stderr, "st_replay: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int cmd_lint(const Args& a) {
  const std::string path = a.log.empty() ? a.positional : a.log;
  if (path.empty()) return usage();
  const std::vector<stu::SchedDecision> log = load_or_die(path);
  std::printf("st_replay: %s: OK (%zu decisions)\n", path.c_str(), log.size());
  return 0;
}

int cmd_dump(const Args& a) {
  const std::string path = a.log.empty() ? a.positional : a.log;
  if (path.empty()) return usage();
  const std::vector<stu::SchedDecision> log = load_or_die(path);
  const std::size_t n = log.size() < a.limit ? log.size() : a.limit;
  for (std::size_t i = 0; i < n; ++i) {
    const stu::SchedDecision& d = log[i];
    std::printf("%6" PRIu64 "  %s/worker %u  %-12s a=%" PRIu64 " b=%" PRIu64 "\n",
                d.seq, d.src == stu::kTraceSrcStvm ? "stvm" : "runtime",
                static_cast<unsigned>(d.worker), stu::sched_kind_name(d.kind),
                d.a, d.b);
  }
  if (n < log.size()) {
    std::printf("... %zu more (--limit)\n", log.size() - n);
  }
  std::printf("%zu decisions total\n", log.size());
  return 0;
}

int cmd_record(const Args& a) {
  if (a.out.empty()) return usage();
  RunOutcome out;
  const std::vector<stu::SchedDecision> log = run_record(a.run, &out);
  save_or_die(a.out, log);
  std::printf("st_replay: recorded %zu decisions to %s (result=%" PRId64
              ", digest=%016" PRIx64 ")\n",
              log.size(), a.out.c_str(), static_cast<std::int64_t>(out.result),
              out.digest);
  return 0;
}

int cmd_replay(const Args& a) {
  const std::string path = a.log.empty() ? a.positional : a.log;
  if (path.empty() || a.times < 1) return usage();
  const std::vector<stu::SchedDecision> log = load_or_die(path);
  RunOutcome first;
  for (int r = 0; r < a.times; ++r) {
    const RunOutcome out = run_replay(a.run, log);
    if (r == 0) {
      first = out;
      continue;
    }
    if (out.digest != first.digest || out.result != first.result ||
        out.stats != first.stats) {
      std::fprintf(stderr,
                   "st_replay: replay %d disagrees with replay 0 "
                   "(digest %016" PRIx64 " vs %016" PRIx64 ")\n",
                   r, out.digest, first.digest);
      return 1;
    }
  }
  const stu::SchedCounters c = stu::sched_counters();
  std::printf("st_replay: %d replays bit-identical (digest=%016" PRIx64
              ", result=%" PRId64 ", divergence=%" PRIu64 ")\n",
              a.times, first.digest, static_cast<std::int64_t>(first.result),
              c.divergence);
  return 0;
}

int cmd_mutate(const Args& a) {
  if (a.log.empty() || a.out.empty()) return usage();
  std::vector<stu::SchedDecision> log = load_or_die(a.log);
  std::size_t at = a.at;
  if (at == static_cast<std::size_t>(-1)) at = log.size() / 2;
  // Walk forward from --at until a decision admits the requested op.
  for (std::size_t i = at; i < log.size(); ++i) {
    std::vector<stu::SchedDecision> m = log;
    if (mutate_log(m, a.op, i, a.run.workers)) {
      save_or_die(a.out, m);
      std::printf("st_replay: %s decision %zu (%s) -> %s\n", a.op.c_str(), i,
                  stu::sched_kind_name(log[i].kind), a.out.c_str());
      return 0;
    }
  }
  std::fprintf(stderr, "st_replay: no mutable decision at or after %zu\n", at);
  return 1;
}

int cmd_shrink(const Args& a) {
  if (a.log.empty() || a.out.empty()) return usage();
  const std::vector<stu::SchedDecision> log = load_or_die(a.log);
  const std::uint64_t baseline = run_free(a.run).digest;
  if (run_replay(a.run, log).digest == baseline) {
    std::fprintf(stderr,
                 "st_replay: schedule is not failing (replay matches the "
                 "free-run digest); nothing to shrink\n");
    return 1;
  }
  const std::size_t k = shrink_prefix(a.run, log, baseline);
  const std::vector<stu::SchedDecision> prefix(log.begin(),
                                               log.begin() + static_cast<std::ptrdiff_t>(k));
  save_or_die(a.out, prefix);
  std::printf("st_replay: shrunk %zu -> %zu decisions (first failing prefix) -> %s\n",
              log.size(), k, a.out.c_str());
  return k < log.size() ? 0 : 1;
}

int cmd_explore(const Args& a) {
  if (a.strategy != "dpor" && a.strategy != "random") return usage();
  const RunOpts& o = a.run;

  // Annotated baseline: the natural schedule, plus the access/HB
  // observations everything downstream is derived from.
  const ExploreRun base = run_explore_once(o, nullptr);
  if (base.error) {
    std::fprintf(stderr, "explore: baseline run failed: %s\n",
                 base.error_msg.c_str());
    return 2;
  }
  const stvm::Word expected =
      a.has_expect ? static_cast<stvm::Word>(a.expect) : base.out.result;
  const auto violates = [&](const ExploreRun& r) {
    return r.error || r.out.result != expected;
  };

  ExploreStats st;
  std::set<std::uint64_t> executed{base.sched_digest};
  std::set<std::uint64_t> candidate_seen;
  std::deque<std::vector<stu::SchedDecision>> frontier;
  std::size_t runs = 0;
  bool found = false;
  std::size_t found_at = 0;
  ExploreRun bad;

  if (violates(base)) {  // --expect can make the natural run the witness
    found = true;
    bad = base;
  } else if (a.strategy == "dpor") {
    const sta::HbReport hb0 = sta::hb_analyze(base.recorded);
    derive_reversal_candidates(base.recorded, hb0, candidate_seen, frontier, st);
    while (!frontier.empty() && runs < a.budget && !found) {
      const std::vector<stu::SchedDecision> cand = std::move(frontier.front());
      frontier.pop_front();
      ExploreRun r = run_explore_once(o, &cand);
      ++runs;
      if (violates(r)) {
        found = true;
        found_at = runs;
        bad = std::move(r);
        break;
      }
      // An already-seen schedule digest means this split reproduced an
      // explored interleaving (the HB graph's equivalence pruning).
      if (!executed.insert(r.sched_digest).second) continue;
      const sta::HbReport hb = sta::hb_analyze(r.recorded);
      derive_reversal_candidates(r.recorded, hb, candidate_seen, frontier, st);
    }
  } else {
    std::vector<stu::SchedDecision> mutbase;
    for (const stu::SchedDecision& d : base.recorded) {
      if (!is_annotation(d)) mutbase.push_back(d);
    }
    stu::Xoshiro256 rng(a.seed);
    while (runs < a.budget && !found) {
      const std::vector<stu::SchedDecision> m =
          random_mutant(mutbase, o.workers, rng);
      ExploreRun r = run_explore_once(o, &m);
      ++runs;
      executed.insert(r.sched_digest);
      if (violates(r)) {
        found = true;
        found_at = runs;
        bad = std::move(r);
      }
    }
  }

  // A violating schedule is re-recorded and complete, hence standalone:
  // shrink it to the first failing prefix under the *violation*
  // predicate (not the digest one -- here "failing" means wrong answer).
  std::size_t shrunk = 0;
  if (found && !bad.recorded.empty()) {
    shrunk = shrink_first_failing(bad.recorded.size(), [&](std::size_t k) {
      const std::vector<stu::SchedDecision> prefix(
          bad.recorded.begin(),
          bad.recorded.begin() + static_cast<std::ptrdiff_t>(k));
      return violates(run_explore_once(o, &prefix));
    });
    if (!a.out.empty()) {
      save_or_die(a.out, bad.recorded);
      const std::vector<stu::SchedDecision> prefix(
          bad.recorded.begin(),
          bad.recorded.begin() + static_cast<std::ptrdiff_t>(shrunk));
      save_or_die(a.out + ".min", prefix);
    }
  }

  if (!a.stats.empty()) {
    std::FILE* f = std::fopen(a.stats.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "explore: cannot write %s\n", a.stats.c_str());
      return 2;
    }
    // Deliberately timestamp-free: coverage stats must be byte-identical
    // across runs of the same (program, options, seed).
    std::fprintf(f,
                 "{\n"
                 "  \"program\": \"%s\",\n"
                 "  \"n\": %ld,\n"
                 "  \"workers\": %u,\n"
                 "  \"quantum\": %d,\n"
                 "  \"strategy\": \"%s\",\n"
                 "  \"seed\": %" PRIu64 ",\n"
                 "  \"budget\": %zu,\n"
                 "  \"baseline_decisions\": %zu,\n"
                 "  \"baseline_result\": %" PRId64 ",\n"
                 "  \"expected\": %" PRId64 ",\n"
                 "  \"runs_executed\": %zu,\n"
                 "  \"unique_schedules\": %zu,\n"
                 "  \"candidates_generated\": %zu,\n"
                 "  \"candidates_duplicate\": %zu,\n"
                 "  \"races_observed\": %zu,\n"
                 "  \"violation_found\": %s,\n"
                 "  \"violation_run\": %zu,\n"
                 "  \"violation_kind\": \"%s\",\n"
                 "  \"violation_result\": %" PRId64 ",\n"
                 "  \"full_decisions\": %zu,\n"
                 "  \"shrunk_decisions\": %zu\n"
                 "}\n",
                 o.program.c_str(), o.n, o.workers, o.quantum,
                 a.strategy.c_str(), a.seed, a.budget, base.recorded.size(),
                 static_cast<std::int64_t>(base.out.result),
                 static_cast<std::int64_t>(expected), runs, executed.size(),
                 st.generated, st.duplicates, st.races,
                 found ? "true" : "false", found_at,
                 !found ? "none" : (bad.error ? "error" : "result"),
                 static_cast<std::int64_t>(bad.out.result),
                 bad.recorded.size(), shrunk);
    std::fclose(f);
  }

  if (found) {
    std::printf("explore: %s found a violation at run %zu/%zu "
                "(result=%" PRId64 " expected=%" PRId64 "%s%s); "
                "schedule %zu decisions, shrunk to %zu\n",
                a.strategy.c_str(), found_at, a.budget,
                static_cast<std::int64_t>(bad.out.result),
                static_cast<std::int64_t>(expected),
                bad.error ? ", error: " : "", bad.error_msg.c_str(),
                bad.recorded.size(), shrunk);
  } else {
    std::printf("explore: %s found no violation in %zu runs "
                "(%zu unique schedules, %zu races observed)\n",
                a.strategy.c_str(), runs, executed.size(), st.races);
  }
  if (a.must_find && !found) return 1;
  if (a.must_not_find && found) return 1;
  return 0;
}

/// End-to-end exercise used by the sched_replay_smoke ctest and the CI
/// fuzz-replay step: record a run, check replay determinism, find a
/// digest-changing mutation, shrink it, and require the shrunk prefix to
/// be strictly smaller yet still failing.  Writes the shrunk schedule to
/// --out (the CI failure artifact).
int cmd_selftest(const Args& a) {
  RunOpts o = a.run;
  RunOutcome rec;
  const std::vector<stu::SchedDecision> log = run_record(o, &rec);
  std::string err;
  if (!stu::sched_lint(log, &err)) {
    std::fprintf(stderr, "selftest: recorded log fails lint: %s\n", err.c_str());
    return 1;
  }
  std::printf("selftest: recorded %zu decisions (digest=%016" PRIx64 ")\n",
              log.size(), rec.digest);

  // Replay determinism: 3 forced replays must reproduce the recorded
  // run's digest, result and VmStats bit-for-bit.
  for (int r = 0; r < 3; ++r) {
    const RunOutcome out = run_replay(o, log);
    if (out.digest != rec.digest || out.result != rec.result ||
        out.stats != rec.stats) {
      std::fprintf(stderr,
                   "selftest: replay %d diverged from the recorded run "
                   "(digest %016" PRIx64 " vs %016" PRIx64 ")\n",
                   r, out.digest, rec.digest);
      return 1;
    }
  }
  std::printf("selftest: 3 replays bit-identical to the recorded run\n");

  // One mutation round: find a decision whose change alters the schedule.
  std::size_t at = 0;
  const std::vector<stu::SchedDecision> mutated =
      find_failing_mutation(o, log, rec.digest, &at);
  if (mutated.empty()) {
    std::fprintf(stderr, "selftest: no digest-changing mutation found\n");
    return 1;
  }
  std::printf("selftest: mutation at decision %zu changes the schedule\n", at);

  // Mutated schedules must still replay deterministically.
  const RunOutcome m1 = run_replay(o, mutated);
  const RunOutcome m2 = run_replay(o, mutated);
  if (m1.digest != m2.digest || m1.result != m2.result ||
      m1.stats != m2.stats) {
    std::fprintf(stderr, "selftest: mutated replay is nondeterministic\n");
    return 1;
  }
  // The architectural result must survive any schedule: pfib computes
  // the same value no matter the interleaving.
  if (m1.result != rec.result) {
    std::fprintf(stderr, "selftest: mutated schedule changed the result\n");
    return 1;
  }

  // Shrink to the minimal failing prefix; must be strictly smaller.
  const std::size_t k = shrink_prefix(o, mutated, rec.digest);
  if (k >= mutated.size()) {
    std::fprintf(stderr, "selftest: shrink failed to reduce (%zu of %zu)\n", k,
                 mutated.size());
    return 1;
  }
  // Every prefix short of the mutation replays to the baseline, so the
  // minimal failing prefix must reach at least the mutated decision.
  if (k <= at) {
    std::fprintf(stderr,
                 "selftest: shrink stopped at %zu, before the mutation at "
                 "index %zu\n",
                 k, at);
    return 1;
  }
  if (!a.out.empty()) {
    const std::vector<stu::SchedDecision> prefix(
        mutated.begin(), mutated.begin() + static_cast<std::ptrdiff_t>(k));
    save_or_die(a.out, prefix);
    std::printf("selftest: shrunk schedule (%zu decisions) -> %s\n", k,
                a.out.c_str());
  }
  std::printf("selftest: OK (%zu -> %zu decisions)\n", mutated.size(), k);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args a;
  if (!parse(argc, argv, 2, &a)) return usage();
  // Plenty of ring so the digest covers the whole run without wrap.
  stu::g_trace_ring_capacity.store(std::size_t{1} << 18,
                                   std::memory_order_relaxed);
  if (cmd == "lint") return cmd_lint(a);
  if (cmd == "dump") return cmd_dump(a);
  if (cmd == "record") return cmd_record(a);
  if (cmd == "replay") return cmd_replay(a);
  if (cmd == "mutate") return cmd_mutate(a);
  if (cmd == "shrink") return cmd_shrink(a);
  if (cmd == "explore") return cmd_explore(a);
  if (cmd == "selftest") return cmd_selftest(a);
  return usage();
}
