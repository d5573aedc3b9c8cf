// Per-worker scheduler event tracing: the recording half.
//
// The paper's evaluation is entirely about *where time goes* -- fork cost
// (Table 1, Figures 17-21), steal latency and migration frequency
// (Figure 22), suspend/restart counts (Section 8) -- so the reproduction
// carries an always-compiled tracing layer.  Every scheduler transition
// (fork, suspend, resume, restart, the Figure 10 steal negotiation,
// stacklet allocation) and every STVM frame-surgery step (suspend patch,
// restart patch, shrink, migration) may emit one fixed-size POD record
// into its worker's private ring.
//
// Design constraints, in order:
//   1. Disabled cost ~ zero.  The hook is one relaxed load of a global
//      event mask plus a predictable branch (`trace_enabled`); no record
//      is built, no ring is touched, nothing is allocated.
//      bench_micro_primitives has a case (BM_TraceFlagCheck /
//      BM_ForkFastPath) pricing exactly this.
//   2. Single writer, no locks.  A ring belongs to one worker; `emit` is
//      a store into a bump slot.  Readers (the exporter, tests) run only
//      after the writer has quiesced (workers joined / VM halted).
//   3. Fixed memory.  The ring wraps, overwriting the oldest records and
//      counting drops; storage is allocated lazily on the first emit so a
//      non-traced run pays nothing.
//
// The merging/export half (Chrome trace_event JSON, env gating, the
// ST_TRACE / ST_TRACE_EVENTS / ST_TRACE_BUF / ST_STATS variables) lives
// in util/trace_export.{hpp,cpp}; the record format and event taxonomy
// are documented field-by-field in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace stu {

/// Event taxonomy.  One bit of the global mask per event (so the enum
/// must stay < 64 entries); the mapping to the paper's primitives is
/// spelled out in docs/OBSERVABILITY.md.
enum TraceEvent : std::uint16_t {
  // Native runtime (src/runtime) scheduler transitions.
  kTraceFork = 0,        ///< st::fork ~ ASYNC_CALL / ST_THREAD_CREATE
  kTraceSuspend,         ///< st::suspend ~ suspend(c, 1)
  kTraceResume,          ///< st::resume ~ LTC deferred resume (readyq tail)
  kTraceResumeRun,       ///< a resumed continuation leaves the readyq
  kTraceRestart,         ///< st::restart ~ restart(c), immediate
  kTraceTaskComplete,    ///< a forked computation finished
  // Figure 10 polling steal protocol.
  kTraceStealPosted,     ///< thief CASed a request into a victim's port
  kTraceStealServed,     ///< victim handed out a task
  kTraceStealRejected,   ///< victim had nothing to give
  kTraceStealReceived,   ///< thief observed the served reply
  kTraceStealCancelled,  ///< thief withdrew the request before service
  // Stacklet space management (DESIGN.md §2 substitution).
  kTraceStackletAlloc,   ///< region slot carved at the physical top
  kTraceHeapFallback,    ///< region exhausted; heap stacklet allocated
  // STVM frame surgery (src/stvm/vm.cpp).
  kTraceVmSuspend,       ///< pure-epilogue unwind + context capture (Fig 6)
  kTraceVmRestart,       ///< RA/parent-FP slot patch (Figure 7)
  kTraceVmShrink,        ///< retired maxima popped, SP raised (Section 5.2)
  kTraceVmMigrate,       ///< Figure 9 two-suspend + restart steal dance
  // Reactor events (src/io): the suspend/restart <-> epoll handshake.
  kTraceIoWait,          ///< would-block op armed interest and suspended
  kTraceIoReady,         ///< readiness fired; the waiter's continuation resumed
  kTraceIoWake,          ///< epoll_wait returned (a=ready count, b=timeout us)
  kTraceIoTimer,         ///< sleep_for armed / timer expiry resumed a sleeper
  kTraceIoMigrate,       ///< fd interest moved to the calling worker's reactor
  kTraceIoCancel,        ///< close() cancelled a suspended waiter
  // Schedule record/replay (util/sched_log.hpp): a nondeterministic
  // decision was logged (a = Lamport seq, b = SchedKind).  Appended last
  // so the numeric values of every earlier event -- and therefore saved
  // ST_TRACE_EVENTS masks -- stay stable.
  kTraceSched,           ///< schedule decision recorded/replayed
  kTraceEventCount,
};
static_assert(kTraceEventCount <= 64, "event mask is a uint64_t bitset");

/// Which subsystem wrote the record; becomes the Chrome-trace pid so the
/// native runtime and the STVM get separate process groups in the viewer.
enum TraceSource : std::uint32_t {
  kTraceSrcRuntime = 1,
  kTraceSrcStvm = 2,
};

/// One fixed-size POD trace record (32 bytes).  `a`/`b` are per-event
/// payloads (pointers, ids, counts -- see docs/OBSERVABILITY.md).
struct TraceRecord {
  std::uint64_t tsc;     ///< trace_clock() at emission
  std::uint64_t a;       ///< event payload 1
  std::uint64_t b;       ///< event payload 2
  std::uint16_t event;   ///< TraceEvent
  std::uint16_t worker;  ///< worker id within the source
  std::uint32_t src;     ///< TraceSource
};
static_assert(sizeof(TraceRecord) == 32);
static_assert(std::is_trivially_copyable_v<TraceRecord>);

/// Global event mask; bit i enables TraceEvent i.  Zero-initialized
/// (tracing off) before any dynamic initialization runs, so hooks are
/// safe arbitrarily early.  Written via trace_set_mask() /
/// trace_configure_from_env() in util/trace_export.hpp.
extern std::atomic<std::uint64_t> g_trace_mask;

/// The hook's fast path: a relaxed load and a bit test.  When tracing is
/// off this is the *entire* cost of an instrumentation site.
inline bool trace_enabled(TraceEvent ev) noexcept {
  return (g_trace_mask.load(std::memory_order_relaxed) >> ev) & 1u;
}

/// Raw timestamp: TSC ticks on x86-64 (converted to microseconds at
/// export time via a wall-clock calibration), steady_clock nanoseconds
/// elsewhere.
inline std::uint64_t trace_clock() noexcept {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Default ring capacity in records per worker; overridden by
/// ST_TRACE_BUF (see trace_export.cpp, which pushes the env value here
/// during configuration so this header stays dependency-free).
extern std::atomic<std::size_t> g_trace_ring_capacity;

/// Single-writer bounded ring of TraceRecords.  The writer is the owning
/// worker; `snapshot`/`size`/`dropped` are meant for after the writer has
/// quiesced (the head counter is released on every emit, so a racy read
/// sees a consistent prefix).  snapshot() additionally re-reads the head
/// after copying and discards anything the writer overwrote meanwhile,
/// so the crash-dump flush never exports torn or duplicated records.
class TraceRing {
 public:
  /// capacity 0 = take g_trace_ring_capacity at first emit.  Rounded up
  /// to a power of two.  Storage allocation is deferred to first emit.
  explicit TraceRing(std::size_t capacity = 0) : requested_(capacity) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Writer only.  Unconditionally records (callers gate on
  /// trace_enabled); wraps by overwriting the oldest record.
  void emit(TraceEvent ev, std::uint16_t worker, TraceSource src,
            std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
    if (buf_.empty()) {
      std::size_t cap = requested_ != 0
                            ? requested_
                            : g_trace_ring_capacity.load(std::memory_order_relaxed);
      buf_.resize(round_up_pow2(cap < 2 ? 2 : cap));
    }
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    TraceRecord& r = buf_[static_cast<std::size_t>(h) & (buf_.size() - 1)];
    r.tsc = trace_clock();
    r.a = a;
    r.b = b;
    r.event = ev;
    r.worker = worker;
    r.src = src;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Total records ever emitted.
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Records currently retained (≤ capacity).
  std::size_t size() const noexcept {
    const std::uint64_t h = emitted();
    return h < buf_.size() ? static_cast<std::size_t>(h) : buf_.size();
  }

  /// Records lost to wrap-around.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t h = emitted();
    return h > buf_.size() ? h - buf_.size() : 0;
  }

  std::size_t capacity() const noexcept { return buf_.size(); }
  bool empty() const noexcept { return emitted() == 0; }

  /// Retained records, oldest first.  Safe against a concurrent writer
  /// (the crash-dump path): the head is read once before the copy
  /// (returned via `head_out`, the exporter's watermark base) and again
  /// after it, and any copied record the writer may have overwritten in
  /// between -- index < new head - capacity -- is dropped rather than
  /// returned torn or duplicated.
  std::vector<TraceRecord> snapshot(std::uint64_t* head_out = nullptr) const {
    std::vector<TraceRecord> out;
    const std::uint64_t h1 = emitted();
    if (head_out != nullptr) *head_out = h1;
    if (h1 == 0 || buf_.empty()) return out;
    const std::uint64_t n = h1 < buf_.size() ? h1 : buf_.size();
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h1 - n; i < h1; ++i) {
      out.push_back(buf_[static_cast<std::size_t>(i) & (buf_.size() - 1)]);
    }
    const std::uint64_t h2 = emitted();
    if (h2 > h1 && h2 > buf_.size()) {
      const std::uint64_t oldest_valid = h2 - buf_.size();
      const std::uint64_t begin = h1 - n;
      if (oldest_valid > begin) {
        const std::uint64_t torn = oldest_valid - begin;
        out.erase(out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(torn < n ? torn : n));
      }
    }
    return out;
  }

 private:
  static std::size_t round_up_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::size_t requested_;
  std::vector<TraceRecord> buf_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace stu
