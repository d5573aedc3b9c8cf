// Worker: one OS thread ("worker" in the paper's terminology) multiplexed
// by many fine-grain threads.
//
// Scheduling state per Figure 11/12 of the paper:
//   fork_deque -- the chain of parent continuations of the computation the
//                 worker is currently executing, newest at the head.  This
//                 is the in-stack part of the lazy task queue.  Head pops
//                 happen when a child finishes or suspends (LIFO); tail
//                 pops happen only when the owner serves a steal request.
//   readyq     -- contexts that are schedulable but not linked into the
//                 chain: resumed (re-awakened) threads enter at the tail
//                 (LTC policy: a resumed thread is *not* run immediately).
//
// Both deques are owner-only: under the polling steal protocol a thief
// never touches a victim's queues; it posts a StealRequest to the victim's
// port and the victim dequeues on its behalf (Figure 10).
//
// Hot-path discipline (the paper's "a fork costs about a procedure call"):
// the per-fork poll collapses to ONE relaxed load of a per-worker poll
// word plus one predictable branch.  Remote parties (thieves, parking
// workers, the monitor) fetch_or bits into the word; the owner services
// and clears them in poll_slow().  Everything else the fork path used to
// do per fork -- heartbeat bump, stat counters, deque-depth histogram
// sample -- is either a plain single-writer field published to an atomic
// mirror from the slow path, or decimated (one sample per
// kDepthSampleEvery forks).  See DESIGN.md §5 and docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/stacklet.hpp"
#include "util/cache.hpp"
#include "util/metrics.hpp"
#include "util/owner_deque.hpp"
#include "util/rng.hpp"
#include "util/trace_ring.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace st {

class Runtime;

/// One in-flight steal negotiation (Figure 10).  Owned by the thief
/// (stack-allocated in its steal loop); the victim holds a pointer only
/// between claiming the port and storing the final state, whose release
/// store publishes `reply`.
struct StealRequest {
  enum State : std::uint32_t { kPosted = 0, kServed = 1, kRejected = 2 };
  std::atomic<std::uint32_t> state{kPosted};
  std::uint32_t thief = 0;  ///< requesting worker id (schedule log payload)
  Continuation reply;
};

/// Runtime-side view of a per-worker I/O reactor (implemented in src/io,
/// which layers *above* the runtime).  The owner worker folds poll() into
/// its idle backoff; notify_work() calls wake() on io-blocked workers so
/// an epoll_wait never outlives the work it is hiding from.
class IoPoller {
 public:
  virtual ~IoPoller() = default;
  /// True when some fine-grain thread is suspended on an fd or a timer of
  /// this reactor (owner-called; gates the idle-path epoll folding).
  virtual bool has_pending() const noexcept = 0;
  /// Drain ready events, resuming waiters onto the owner's readyq.
  /// timeout_us <= 0 polls nonblockingly; returns the number of waiters
  /// resumed.  Owner worker only.
  virtual int poll(long timeout_us) = 0;
  /// Any thread: force a blocked poll() to return promptly (eventfd).
  virtual void wake() noexcept = 0;
};

/// The runtime's counter table, in RuntimeStats field order.  Every
/// counter struct, copy, aggregate and renderer is generated from it, so
/// a new counter costs one row plus its increment.  Two kinds of row:
///   X(field)          a per-worker WorkerStats field, bumped by the owner;
///   R(field, getter)  read from each worker's StackRegion by stats().
/// `field` is also the counter's key in metrics_json and the ST_STATS
/// line.  Row comments must be block comments: a line comment would
/// swallow the continuation.
#define ST_WORKER_COUNTERS(X, R)                                  \
  X(forks)                                                        \
  X(suspends)                                                     \
  X(resumes)                                                      \
  X(steals_served)                                                \
  X(steals_received)                                              \
  X(steal_attempts)                                               \
  X(steals_rejected)                                              \
  X(steals_cancelled)                                             \
  X(tasks_completed)                                              \
  R(region_high_water, high_water)                                \
  R(heap_fallbacks, heap_fallbacks)                               \
  R(region_scavenges, scavenges)                                  \
  R(region_trims, trims)                                          \
  X(io_wakeups)    /* epoll_wait returns with >= 1 event */       \
  X(io_events)     /* waiters resumed by readiness/expiry */      \
  X(io_timers)     /* sleep_for expiries delivered */             \
  X(io_migrations) /* fd interest re-homed after a steal */       \
  X(io_cancels)    /* waiters cancelled by close() */

/// Row expanders shared by both kinds of row: a plain counter field, or
/// nothing (for the rows a struct does not hold).
#define ST_COUNTER_FIELD(field, ...) std::uint64_t field = 0;
#define ST_COUNTER_SKIP(...)

/// Per-worker counters (the X rows).  Plain fields: written only by the
/// owning worker thread, read by nobody else.  The owner copies them into
/// the atomic WorkerStatsMirror from the slow path (publish_stats);
/// readers go through the mirror.
struct WorkerStats {
  ST_WORKER_COUNTERS(ST_COUNTER_FIELD, ST_COUNTER_SKIP)
};

/// Racy-reader copy of WorkerStats (relaxed atomics, single publisher).
struct WorkerStatsMirror {
#define ST_COUNTER_ATOMIC(field) std::atomic<std::uint64_t> field{0};
  ST_WORKER_COUNTERS(ST_COUNTER_ATOMIC, ST_COUNTER_SKIP)
#undef ST_COUNTER_ATOMIC
};

/// What the worker is doing right now, for the monitor's classification
/// (working / stealing / idle) and the stall watchdog: a stall is a
/// *working* worker whose heartbeat stops advancing.
enum class WorkerPhase : std::uint32_t {
  kIdle = 0,      ///< scheduler loop, nothing to run
  kWorking = 1,   ///< executing application code
  kStealing = 2,  ///< negotiating with a victim
};

/// Owner-only LIFO of recycled future-cell blocks (sync/future.hpp,
/// DESIGN.md §5.16).  One size class, bounded: a give() past kCap and a
/// take() from an empty cache fall back to the heap.  Blocks arrive only
/// from frees on this worker, so nothing is allocated up front; the
/// destructor returns them to the heap.  Under ASan a cached block is
/// poisoned until it is taken again.
class CellCache {
 public:
  static constexpr std::size_t kBlockBytes = 64;
  static constexpr unsigned kCap = 64;

  CellCache() = default;
  CellCache(const CellCache&) = delete;
  CellCache& operator=(const CellCache&) = delete;
  ~CellCache() {
    while (void* p = take()) ::operator delete(p);
  }

  void* take() noexcept {
    if (n_ == 0) return nullptr;
    void* p = blocks_[--n_];
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(p, kBlockBytes);
#endif
    return p;
  }
  /// False when the cache is full; the caller frees the block.
  bool give(void* p) noexcept {
    if (n_ == kCap) return false;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p, kBlockBytes);
#endif
    blocks_[n_++] = p;
    return true;
  }
  unsigned size() const noexcept { return n_; }

 private:
  unsigned n_ = 0;
  void* blocks_[kCap];
};

/// The runtime's histogram table, in metrics_json / ST_STATS order:
/// X(member, unit).  "ns" rows record trace_clock() ticks, rendered in ns
/// (ST_STATS suffixes their name with _ns); the others record counts.
#define ST_WORKER_HISTOGRAMS(X)                                            \
  X(steal_latency, ns)          /* post -> served/rejected */              \
  X(steal_cancel_latency, ns)   /* post -> withdrawn */                    \
  X(suspend_to_restart, ns)     /* suspend() -> dispatch */                \
  X(fork_deque_depth, tasks)    /* fork-deque depth, decimated sample */   \
  X(io_wait, ns)                /* fd-suspend arm -> readiness */          \
  X(io_ready_batch, events)     /* events per epoll_wait return */

/// Per-worker latency/depth instruments (owner-writes, monitor-reads).
struct WorkerMetrics {
#define ST_HISTOGRAM_MEMBER(member, unit) stu::LogHistogram member;
  ST_WORKER_HISTOGRAMS(ST_HISTOGRAM_MEMBER)
#undef ST_HISTOGRAM_MEMBER
};

class alignas(stu::kCacheLine) Worker {
 public:
  // Poll-word bits.  Remote parties fetch_or (release); the owner clears
  // the serviceable bits with fetch_and (acquire) in poll_slow.
  static constexpr std::uint32_t kPollSteal = 1u << 0;    ///< request in port_
  static constexpr std::uint32_t kPollSample = 1u << 1;   ///< publish mirrors
  static constexpr std::uint32_t kPollParked = 1u << 2;   ///< thieves parked: poke futex
  static constexpr std::uint32_t kPollFeatures = 1u << 3; ///< trace/metrics on
  /// The bits poll_slow() acts on (kPollFeatures alone needs no service).
  static constexpr std::uint32_t kPollServe = kPollSteal | kPollSample | kPollParked;

  /// Fork-deque depth publication cadence on the fork fast path
  /// (power-of-two decimation; also the fork_deque_depth sampling rate).
  static constexpr int kDepthSampleEvery = 64;

  /// Scheduler-loop cadence of the nonblocking reactor poll while the
  /// worker is busy (a saturated worker must still drain its epoll set;
  /// idle workers poll on every backoff episode instead).
  static constexpr int kIoPollEvery = 64;

  Worker(Runtime& rt, unsigned id, std::size_t stacklet_bytes, std::size_t region_slots);
  ~Worker();

  /// The scheduler loop of Figure 12 (runs on the worker's OS thread),
  /// with the staged idle backoff: pause spin -> yield -> futex park.
  void scheduler_loop();

  /// The per-fork poll collapses to this: one relaxed load, one branch.
  std::uint32_t poll_word() const noexcept {
    return poll_word_.load(std::memory_order_relaxed);
  }
  /// The poll word for a remote reader that must see what the owner
  /// published before clearing a bit (stats() waiting on kPollSample).
  std::uint32_t poll_word_acquire() const noexcept {
    return poll_word_.load(std::memory_order_acquire);
  }
  /// Remote side of the poll word (thief, monitor, parking worker).
  void post_poll_bits(std::uint32_t bits) noexcept {
    poll_word_.fetch_or(bits, std::memory_order_release);
  }

  /// Owner-only slow path behind the poll word: serve the steal port,
  /// publish heartbeat/stat mirrors and the depth array, wake parked
  /// thieves, refresh the features bit.
  void poll_slow() noexcept;

  /// Fork-point slow path: the per-fork trace/metrics work (stacklet-alloc
  /// + fork events) that only runs when a feature is on.  The fork's steal
  /// poll runs at the child's entry instead, once the parent continuation
  /// is on the fork deque.
  void fork_poll_slow(Stacklet* s) noexcept;

  /// Serve at most one pending steal request (the paper's
  /// check_steal_request, reached from poll points).
  void serve_steal_request();

  /// Idle-path: request a task from a victim chosen by published load;
  /// returns true if one was received and executed.
  bool try_steal_and_run();

  /// Push/pop of the parent-continuation chain (owner only).
  stu::OwnerDeque<Continuation*>& fork_deque() noexcept { return fork_deque_; }
  stu::OwnerDeque<Continuation*>& readyq() noexcept { return readyq_; }

  StackRegion& region() noexcept { return region_; }

  /// Owner-only plain counters; everyone else reads stats_mirror().
  WorkerStats& stats() noexcept { return stats_; }
  const WorkerStatsMirror& stats_mirror() const noexcept { return mirror_; }

  /// Copy the plain counters + heartbeat into their atomic mirrors and
  /// publish this worker's stealable-work depth (owner only).
  void publish_stats() noexcept;

  /// Publish fork_deque+readyq occupancy to the runtime's shared depth
  /// array (one relaxed store; thieves read it to pick victims).
  void publish_depth() noexcept;

  /// publish_depth plus, when metrics are on, a fork_deque_depth histogram
  /// sample -- the decimated replacement for the per-fork record.
  void sample_depth() noexcept;

  /// Fork fast path depth decimation: one plain decrement + branch, plus
  /// an eager publish on the empty->nonempty transition so thieves (and
  /// the park recheck) never see a stale zero while stealable work
  /// exists.  Call after pushing the parent continuation.
  void maybe_publish_depth() noexcept {
    if (--depth_countdown_ <= 0) [[unlikely]] {
      depth_countdown_ = kDepthSampleEvery;
      sample_depth();
      return;
    }
    if (!solo_ && fork_deque_.size() + readyq_.size() == 1) publish_depth();
  }

  /// Single-worker runtimes have no thieves: the transition publish above
  /// is skipped (decimated sampling still feeds the depth histogram).
  void set_solo(bool s) noexcept { solo_ = s; }

  /// Scheduler event tracing (docs/OBSERVABILITY.md).  Disabled cost is
  /// one relaxed load + predictable branch; the record write is out of
  /// line so the hook inlines to almost nothing at every call site.
  void trace(stu::TraceEvent ev, std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
    if (stu::trace_enabled(ev)) [[unlikely]] trace_record(ev, a, b);
  }
  stu::TraceRing& trace_ring() noexcept { return trace_; }
  unsigned id() const noexcept { return id_; }
  Runtime& runtime() noexcept { return rt_; }

  /// Liveness signal for the monitor: bumped at every scheduling event
  /// (fork, suspend, resume, poll, steal, scheduler-loop iteration).
  /// Plain single-writer field; the monitor reads the mirror, which the
  /// owner refreshes from the slow path (the monitor requests publication
  /// via kPollSample every tick).  A working worker whose published
  /// heartbeat freezes for ST_STALL_MS is stalled.
  void heartbeat() noexcept { ++hb_; }
  std::uint64_t heartbeat_count() const noexcept {
    return hb_mirror_.load(std::memory_order_relaxed);
  }
  void set_phase(WorkerPhase p) noexcept {
    phase_.store(static_cast<std::uint32_t>(p), std::memory_order_relaxed);
  }
  WorkerPhase phase() const noexcept {
    return static_cast<WorkerPhase>(phase_.load(std::memory_order_relaxed));
  }

  /// True while the worker is blocked in futex_wait on the work epoch.
  /// A parked worker has published everything and cannot serve its port;
  /// thieves skip it, and stats() treats its mirror as current.
  bool parked() const noexcept { return parked_.load(std::memory_order_acquire); }
  void set_parked(bool p) noexcept {
    parked_.store(p, std::memory_order_release);
  }

  /// The worker's I/O reactor, installed lazily by src/io on the first
  /// would-block operation run on this worker (owner stores; any thread
  /// may read -- notify_work walks these to wake blocked pollers).  The
  /// worker owns the poller and deletes it at destruction.
  IoPoller* io_poller() const noexcept {
    return io_poller_.load(std::memory_order_acquire);
  }
  void install_io_poller(IoPoller* p) noexcept {
    io_poller_.store(p, std::memory_order_release);
  }

  /// True while the worker is blocked inside io_poller()->poll() in place
  /// of a futex park (stage 3 of the idle backoff).  Same contract as
  /// parked(): mirrors were published first, stats() treats them as
  /// current, and notify_work must wake() the reactor.
  bool io_blocked() const noexcept {
    return io_blocked_.load(std::memory_order_acquire);
  }
  void set_io_blocked(bool b) noexcept {
    io_blocked_.store(b, std::memory_order_release);
  }

  WorkerMetrics& metrics() noexcept { return metrics_; }
  const WorkerMetrics& metrics() const noexcept { return metrics_; }

  /// Owner-only; sync/future.hpp reaches it through tl_worker.
  CellCache& cell_cache() noexcept { return cell_cache_; }

  /// Run a continuation to its next suspension/completion, with this
  /// worker's scheduler context as the fallback parent.
  void attach_and_run(Continuation target, SwitchMsg* msg = nullptr);

  /// The scheduler's own context: where a computation goes when its
  /// parent chain is exhausted on this worker.
  MachineContext& scheduler_context() noexcept { return sched_ctx_; }

  std::atomic<StealRequest*>& port() noexcept { return port_; }

 private:
  void trace_record(stu::TraceEvent ev, std::uint64_t a, std::uint64_t b) noexcept;

  /// One staged-backoff step of the idle path; returns true if the stage
  /// machinery parked (slept) the worker.
  void idle_backoff_step(int& spins, int& yields);

  Runtime& rt_;
  unsigned id_;
  // Owner-hot plain state first (one writer, no readers elsewhere).
  std::uint64_t hb_ = 0;
  int depth_countdown_ = 1;  // publish on the first fork, then decimated
  bool solo_ = false;        // single-worker runtime: no thieves
  stu::OwnerDeque<Continuation*> fork_deque_;
  stu::OwnerDeque<Continuation*> readyq_;
  StackRegion region_;
  MachineContext sched_ctx_;
  stu::Xoshiro256 rng_;
  WorkerStats stats_;
  stu::TraceRing trace_;
  WorkerMetrics metrics_;
  // Published mirrors (owner writes from the slow path, racy readers).
  WorkerStatsMirror mirror_;
  std::atomic<std::uint64_t> hb_mirror_{0};
  std::atomic<std::uint32_t> phase_{0};  // WorkerPhase::kIdle
  std::atomic<bool> parked_{false};
  std::atomic<bool> io_blocked_{false};
  std::atomic<IoPoller*> io_poller_{nullptr};
  int io_poll_countdown_ = kIoPollEvery;
  CellCache cell_cache_;
  // Cross-worker mailboxes on their own line: thieves CAS the port and
  // fetch_or the poll word; the owner polls the word every fork.
  alignas(stu::kCacheLine) std::atomic<std::uint32_t> poll_word_{0};
  std::atomic<StealRequest*> port_{nullptr};
};

/// The worker executing the current OS thread, or nullptr outside workers.
/// constinit tells every translation unit that it needs no dynamic TLS
/// initialisation, so a read is a plain %fs-relative load with no call
/// or test of a TLS init function.
extern constinit thread_local Worker* tl_worker;

}  // namespace st
