// Schedule record/replay log (ROADMAP item 4, first half).
//
// Every nondeterministic scheduling decision -- which victim a thief
// probes, how a steal negotiation resolves, who claims an injected root,
// where a quantum expires, which waiter an io batch delivers first,
// park/unpark edges -- can be recorded into a compact in-memory log and
// written out at exit as a versioned binary file (`stmp-sched-v1`).  A
// later STVM run can load that file and *force* the recorded schedule
// back through the same decision points, turning an interleaving bug
// into a reproducible artifact that tools/st_replay can validate, mutate
// and delta-shrink.
//
// Decisions are sequenced by a single Lamport-style clock shared by all
// workers and both sources (native runtime and STVM).  Each decision can
// also ride the 32-byte trace-event flow (kTraceSched, a = seq,
// b = kind) so `trace_export` interleaves the schedule stream with the
// ordinary event stream in one Chrome-trace timeline.
//
// Determinism contract (documented in docs/OBSERVABILITY.md):
//   * STVM (kTraceSrcStvm): the VM runs on one OS thread, so a replayed
//     log forces a bit-identical architectural schedule; trace digests,
//     results and VmStats reproduce exactly, run after run.
//   * Native runtime (kTraceSrcRuntime): recorded only.  OS threads
//     really race, so nothing forces these decisions back; the log feeds
//     the HB race analysis (ST_SCHED_ANNOTATE), the trace timeline and
//     sched_lint.  Loading a log for replay drops them, with one line.
//   * An STVM decision that cannot be honored increments the
//     `sched_divergence` counter and feeds the divergence-seq histogram.
//
// Cost when off: one relaxed atomic load and a predicted-not-taken
// branch per decision point (the same pricing as trace_enabled()).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/trace_ring.hpp"

namespace stu {

/// Decision kinds.  Values are part of the stmp-sched-v1 on-disk format;
/// append only.
enum SchedKind : std::uint16_t {
  /// A thief committed to probing a victim.  a = victim worker id (or
  /// kSchedNoVictim when the probe found nobody -- recorded by the STVM,
  /// whose probe loop is bounded; the native runtime records only
  /// successful selections to keep idle-spin logs small).  b = 1 when the
  /// STVM chose via the rng fallback (replay re-draws to keep the rng
  /// stream aligned), 0 for the deterministic load scan.
  kSchedVictim = 0,
  /// Resolution of a thief's posted steal request.
  /// a = kSchedOutcome*, b = victim worker id.
  kSchedStealResult = 1,
  /// A victim served (or rejected) a thief at a poll point.
  /// a = thief worker id, b = 1 served / 0 rejected.
  kSchedServe = 2,
  /// A worker claimed an injected root task.  a = claim ordinal.
  kSchedRoot = 3,
  /// A quantum expired (or the engine exited early).  a = instructions
  /// actually retired this quantum, b = architectural pc at expiry.
  /// Replay forces the next quantum's budget to `a` (clamped >= 1).
  kSchedQuantum = 4,
  /// A worker decided to park.  a = work epoch observed.
  kSchedPark = 5,
  /// A parked worker woke.  a = work epoch after waking.
  kSchedUnpark = 6,
  /// The io reactor delivered readiness to a waiter.
  /// a = waiter token, b = ready event mask.
  kSchedIoReady = 7,
  /// Annotation records (src/analysis/hb.hpp): observations riding the
  /// decision clock, never forced back by replay.
  /// An annotated shared-memory access.  a = object id (address),
  /// b = (aux << 2) | SchedAccessKind.  For STVM accesses aux is the
  /// global retired-instruction count at the access, which lets the
  /// explorer compute the quantum split that preempts just before it;
  /// native accesses carry a site id.
  kSchedAccess = 8,
  /// A happens-before release: everything this thread did so far is
  /// ordered before whoever later acquires the same token.
  /// a = token (continuation/lock/counter address), b = SchedHbClass.
  kSchedHbRelease = 9,
  /// The acquire pairing a release by token.  a = token, b = SchedHbClass.
  kSchedHbAcquire = 10,
  kSchedKindCount = 11,
};

/// kSchedAccess `b` low bits.
enum SchedAccessKind : std::uint64_t {
  kSchedAccessRead = 0,
  kSchedAccessWrite = 1,
  /// Atomic read-modify-write (STVM fetchadd, native fetch_add/fetch_or,
  /// builtin-granularity publishes).  Any cell ever touched atomically is
  /// classified as a synchronization cell by the analyzer: its accesses
  /// carry happens-before instead of being race-checked.
  kSchedAccessAtomic = 2,
  kSchedAccessKindCount = 3,
};
inline constexpr std::uint64_t kSchedAccessAuxShift = 2;

/// kSchedHbRelease/kSchedHbAcquire `b`: which seam emitted the edge
/// (docs/ANALYSIS.md "Edge taxonomy").
enum SchedHbClass : std::uint64_t {
  kSchedHbCtx = 1,    ///< continuation handoff: suspend/resume/restart/migrate
  kSchedHbJoin = 2,   ///< join-counter arrival -> waiter wake (src/sync)
  kSchedHbLock = 3,   ///< spinlock-guarded critical section entry/exit
  kSchedHbSteal = 4,  ///< Figure-10 steal negotiation handoff
  kSchedHbIo = 5,     ///< io readiness delivery -> waiter restart
  kSchedHbClassCount = 6,
};

/// kSchedStealResult payloads (field `a`).
enum : std::uint64_t {
  kSchedOutcomeRejected = 0,
  kSchedOutcomeServed = 1,
  kSchedOutcomeCancelled = 2,
};

/// kSchedVictim `a` when a probe found no eligible victim.
inline constexpr std::uint64_t kSchedNoVictim = ~std::uint64_t{0};

/// One recorded decision.  Same 32-byte shape as TraceRecord so the two
/// streams interleave cheaply; `seq` is the Lamport clock.
struct SchedDecision {
  std::uint64_t seq;
  std::uint64_t a;
  std::uint64_t b;
  std::uint16_t kind;
  std::uint16_t worker;
  std::uint32_t src;  ///< TraceSource of the deciding component
};
static_assert(sizeof(SchedDecision) == 32, "decisions are packed 32-byte records");

/// Mode bits: record and replay compose.  Record|Replay ("replay+record",
/// the explorer's execution mode) forces a log prefix back while
/// re-recording the complete schedule the run actually took, so every
/// explored interleaving leaves a standalone-replayable artifact.
enum SchedMode : std::uint32_t {
  kSchedModeOff = 0,
  kSchedModeRecord = 1,
  kSchedModeReplay = 2,
};

/// Global mode gate.  Off costs one relaxed load + branch per decision.
extern std::atomic<std::uint32_t> g_sched_mode;
/// Annotation gate: when set (and recording), the runtime/VM also log
/// kSchedAccess / kSchedHb* observation records for the HB analyzer.
extern std::atomic<std::uint32_t> g_sched_annotate;

inline bool sched_recording() noexcept {
  return (g_sched_mode.load(std::memory_order_relaxed) & kSchedModeRecord) != 0;
}
inline bool sched_replaying() noexcept {
  return (g_sched_mode.load(std::memory_order_relaxed) & kSchedModeReplay) != 0;
}
inline bool sched_active() noexcept {
  return g_sched_mode.load(std::memory_order_relaxed) != kSchedModeOff;
}
inline bool sched_annotating() noexcept {
  return g_sched_annotate.load(std::memory_order_relaxed) != 0 && sched_recording();
}

/// Reads ST_SCHED_RECORD / ST_SCHED_REPLAY / ST_SCHED_ANNOTATE once
/// (idempotent).  Replay wins when both record and replay are set.
/// ST_SCHED_RECORD installs an atexit writer.
void sched_configure_from_env();

/// Appends a decision under the global clock and returns its seq.  When
/// `ring` is non-null and kTraceSched tracing is enabled, also emits a
/// ride-along trace event (a = seq, b = kind) into the caller's ring.
std::uint64_t sched_record(SchedKind kind, std::uint16_t worker, TraceSource src,
                           std::uint64_t a = 0, std::uint64_t b = 0,
                           TraceRing* ring = nullptr);

/// Pops the next forced decision for (kind, worker, src).  Returns false
/// when the log has no more decisions for that slot (caller free-runs).
/// When `ring` is non-null, a consumed decision re-emits its kTraceSched
/// event so replayed traces carry the same schedule stream.
bool sched_replay_next(SchedKind kind, std::uint16_t worker, TraceSource src,
                       SchedDecision* out, TraceRing* ring = nullptr);

/// Reports a forced decision that could not be honored.  The first
/// divergence prints one line in the verifier's `proc/worker @decision`
/// style; all of them bump the `sched_divergence` counter and the
/// divergence-seq histogram.
void sched_note_divergence(SchedKind kind, std::uint16_t worker, TraceSource src,
                           std::uint64_t seq, std::uint64_t expect, std::uint64_t got,
                           const char* what);

/// Annotation helpers (no-ops unless sched_annotating()); thin wrappers
/// over sched_record so observations share the decision clock.
void sched_access(std::uint16_t worker, TraceSource src, std::uint64_t obj,
                  SchedAccessKind kind, std::uint64_t aux, TraceRing* ring = nullptr);
void sched_hb_release(std::uint16_t worker, TraceSource src, std::uint64_t token,
                      SchedHbClass cls, TraceRing* ring = nullptr);
void sched_hb_acquire(std::uint16_t worker, TraceSource src, std::uint64_t token,
                      SchedHbClass cls, TraceRing* ring = nullptr);
/// A read-modify-write on a synchronization token: an acquire and a
/// release recorded back to back under one clock hold, so no other
/// thread's edge on the token can land between them (the release then
/// carries every earlier releaser's clock, as the RMW chain does).
void sched_hb_acq_rel(std::uint16_t worker, TraceSource src, std::uint64_t token,
                      SchedHbClass cls, TraceRing* ring = nullptr);

/// Programmatic control (tools and tests; overrides the env config).
void sched_set_off();
void sched_set_record();
void sched_set_replay(std::vector<SchedDecision> log);
/// Record|Replay: force `log` back as a prefix (annotation records in it
/// are skipped -- they are observations, not decisions) while recording
/// the complete schedule this run actually takes.
void sched_set_replay_record(std::vector<SchedDecision> log);
void sched_set_annotate(bool on);
/// Drains the record buffer (sorted by seq) and leaves mode untouched.
std::vector<SchedDecision> sched_take_recorded();

/// Order-sensitive FNV-1a over (kind, worker, src, a, b) of every record
/// -- seq excluded, so logically identical schedules reached through
/// different replay prefixes digest equal.  With annotations on, two runs
/// digest equal iff they interleaved every decision *and* every annotated
/// access identically: the explorer's interleaving-equivalence key.
std::uint64_t sched_schedule_digest(const std::vector<SchedDecision>& log);

struct SchedCounters {
  std::uint64_t recorded = 0;
  std::uint64_t replayed = 0;
  std::uint64_t divergence = 0;
};
SchedCounters sched_counters();
void sched_reset_counters();

const char* sched_kind_name(std::uint16_t kind) noexcept;

/// stmp-sched binary io.  Layout: 16-byte magic ("stmp-sched-v1\0\0\0"),
/// u64 little-endian decision count, then count packed SchedDecisions.
/// The reader refuses any other magic, naming the one it found.
bool sched_write_file(const std::string& path, const std::vector<SchedDecision>& log,
                      std::string* err = nullptr);
bool sched_read_file(const std::string& path, std::vector<SchedDecision>* out,
                     std::string* err = nullptr);

/// Structural validation: seq strictly increasing, kinds/srcs in range,
/// victim/steal pairing per worker, payload sanity.  Returns false with
/// a message.
bool sched_lint(const std::vector<SchedDecision>& log, std::string* err);

}  // namespace stu
