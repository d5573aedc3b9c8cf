// Public API of the StackThreads/MP-style native runtime.
//
//   st::Runtime rt(4);                       // four workers (OS threads)
//   rt.run([] {
//     st::JoinCounter jc(2);                 // see sync/join_counter.hpp
//     st::fork([&] { work_a(); jc.finish(); });
//     st::fork([&] { work_b(); jc.finish(); });
//     jc.join();
//   });
//
// Mapping to the paper's core primitives (Section 3.4):
//   st::fork(f)           ~ ST_THREAD_CREATE(e)/ASYNC_CALL(e): the child
//                           starts immediately on this worker (LIFO); the
//                           parent's continuation becomes stealable.
//   st::suspend(c)        ~ suspend(c, 1): block the current thread,
//                           control reaches the nearest fork point.
//   st::resume(c)         ~ LTC_resume: deferred -- c enters the tail of
//                           the resuming worker's readyq (Figure 12).
//   st::restart(c)        ~ restart(c): immediate -- the caller becomes
//                           c's parent and c runs now (Figure 7/8).
//   st::poll()            ~ the manually inserted polling of Section 4.1
//                           (Feeley-style); also run at every child entry.
//
// Migration (Figure 9/10) follows from these: an idle worker posts a
// request; the victim's poll hands over the tail of its lazy task queue
// (readyq tail if any, else its outermost parent continuation).
//
// Substitution note (see DESIGN.md §2): a forked child runs on a pooled
// stacklet carved from the worker's physical-stack region instead of
// sharing the parent's native frames -- frame-level detachment of g++
// frames is unsound without the paper's proposed -call-destroys-sp
// compiler option.  All scheduling, synchronization, migration and
// space-management behaviour is preserved; the STVM substrate performs
// the literal frame surgery.
//
// Exceptions MUST NOT propagate out of a forked callable (the known hard
// case for frame detachment): the child's boot frame catches and calls
// std::terminate with a diagnostic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/topology.hpp"
#include "runtime/worker.hpp"
#include "util/spinlock.hpp"

namespace st {

class Monitor;

struct RuntimeConfig {
  unsigned workers = 1;
  std::size_t stacklet_bytes = 64 * 1024;
  std::size_t region_slots = 2048;
  /// Stall-watchdog threshold in ms; -1 = take ST_STALL_MS from the
  /// environment, 0 = off.  (Tests set it directly.)
  long stall_ms = -1;
  /// Periodic metrics-snapshot cadence in ms; -1 = ST_METRICS_PERIOD_MS.
  long metrics_period_ms = -1;
  /// Futex parking of idle workers: 1 = on, 0 = off, -1 = ST_PARK from
  /// the environment (default on; forced off on non-Linux hosts).
  int park = -1;
};

/// Idle-path tuning (staged backoff + victim policy), resolved once at
/// Runtime construction from the environment (docs/OBSERVABILITY.md).
struct IdlePolicy {
  bool park = true;          ///< ST_PARK: futex-park after the backoff stages
  int spin = 64;             ///< ST_SPIN: pause-spin iterations (stage 1)
  int yields = 8;            ///< ST_YIELD: sched yields (stage 2)
  long park_timeout_us = 2000;  ///< ST_PARK_TIMEOUT_US: belt-and-braces wake
  bool load_victim = true;   ///< ST_VICTIM=load|random
  long io_wait_us = 2000;    ///< ST_IO_WAIT_US: stage-3 epoll_wait timeout
  /// ST_STEAL_LOCAL_RETRIES: failed local-domain probes before a thief
  /// may cross domains (hierarchical stealing; irrelevant on one domain).
  int steal_local_retries = 4;
  /// ST_STEAL_BATCH: max continuations a cross-domain steal carries home
  /// (clamped to StealRequest::kMaxBatch; 1 restores single-task steals).
  int steal_batch = 4;
};

/// Aggregated counters over all workers (see WorkerStats).
struct RuntimeStats {
  std::uint64_t forks = 0, suspends = 0, resumes = 0;
  std::uint64_t steals_served = 0, steals_received = 0, steal_attempts = 0,
                steals_rejected = 0, steals_cancelled = 0;
  std::uint64_t steals_local = 0, steals_remote = 0, steal_tasks = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t region_high_water = 0, heap_fallbacks = 0;
  std::uint64_t region_scavenges = 0, region_trims = 0;
  std::uint64_t io_wakeups = 0, io_events = 0, io_timers = 0;
  std::uint64_t io_migrations = 0, io_cancels = 0;
};

class Runtime {
 public:
  explicit Runtime(unsigned workers) : Runtime(RuntimeConfig{workers}) {}
  explicit Runtime(RuntimeConfig cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes `root` on some worker as a fine-grain thread and blocks the
  /// calling (non-worker) thread until it completes.  May be called
  /// repeatedly; calls are serialized by the caller.
  void run(std::function<void()> root);

  unsigned num_workers() const noexcept { return static_cast<unsigned>(workers_.size()); }
  Worker& worker(unsigned i) noexcept { return *workers_[i]; }
  bool done() const noexcept { return done_.load(std::memory_order_acquire); }

  /// Aggregated counters.  Quiesce-aware: posts a kPollSample request to
  /// every worker and waits (bounded, ~5ms) until each has published its
  /// mirror or is parked, so counts read after run() returns are exact.
  /// A worker wedged in poll-free application code yields a best-effort
  /// (slightly stale) reading instead of blocking.
  RuntimeStats stats() const;

  /// This runtime's section of the ST_METRICS snapshot: one JSON object
  /// with aggregated counters, per-worker state (phase, heartbeat, deque
  /// depths, region occupancy, E/R/X sizes) and merged latency
  /// histograms.  Also installed as a MetricsRegistry provider.
  std::string metrics_json() const;

  /// The monitor thread, when one is running (ST_STALL_MS /
  /// ST_METRICS_PERIOD_MS or the RuntimeConfig equivalents); else null.
  Monitor* monitor() noexcept { return monitor_.get(); }

  const IdlePolicy& idle_policy() const noexcept { return idle_; }
  bool parking_enabled() const noexcept { return idle_.park; }
  /// Workers currently blocked in futex_wait on the work epoch.
  unsigned parked_workers() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

  /// Worker placement: steal domains, CPUs, NUMA nodes (ST_TOPOLOGY /
  /// ST_PIN; resolved once in the ctor before workers are created).
  const Topology& topology() const noexcept { return topo_; }
  unsigned num_domains() const noexcept { return topo_.num_domains; }
  unsigned domain_of(unsigned worker) const noexcept {
    return topo_.domain_of(worker);
  }
  /// Per-domain count of futex-park wakeups (idle workers pulled back in;
  /// the "did work reach the remote socket" signal of Figure 22).
  std::uint64_t domain_idle_wakes(unsigned d) const noexcept {
    return d < domain_idle_wakes_.size()
               ? domain_idle_wakes_[d].value.load(std::memory_order_relaxed)
               : 0;
  }

  // -- internal (used by workers / the monitor) --------------------------
  bool pop_injected(std::function<void()>& out);
  Worker* random_victim(stu::Xoshiro256& rng, unsigned self);

  /// Victim selection for the idle path: under ST_VICTIM=load (default),
  /// scan the published-depth array for the most loaded worker (rotating
  /// start breaks ties fairly); fall back to random among unparked
  /// workers.  Returns nullptr when nothing looks stealable.  With more
  /// than one steal domain this is the flat fallback; thieves go through
  /// choose_victim_hier instead.
  Worker* choose_victim(stu::Xoshiro256& rng, unsigned self);

  /// Hierarchical victim selection (>= 2 domains): scan the thief's own
  /// domain's published loads first; only after the thief's local-fail
  /// streak crosses ST_STEAL_LOCAL_RETRIES consider other domains,
  /// ranked by advertised load weighted by the thief's per-domain
  /// steal-hit EMA.  `*local` reports which side chose; the caller sizes
  /// the request batch accordingly.
  Worker* choose_victim_hier(stu::Xoshiro256& rng, Worker& self, bool* local);

  /// Release the calling thief's domain's cross-domain probe slot (taken
  /// by choose_victim_hier when it returned a remote victim).
  void release_remote_gate(unsigned d) noexcept {
    if (d < domain_remote_gate_.size()) {
      domain_remote_gate_[d].value.store(0, std::memory_order_release);
    }
  }

  /// Publication side of the depth array (called by workers from their
  /// slow path and by the park/idle transitions).
  void publish_load(unsigned id, std::uint32_t load) noexcept {
    published_load_[id].value.store(load, std::memory_order_relaxed);
  }
  std::uint32_t published_load(unsigned id) const noexcept {
    return published_load_[id].value.load(std::memory_order_relaxed);
  }

  /// New-stealable-work signal: bump the work epoch and wake parked
  /// workers (futex).  Called on inject/resume and -- via the kPollParked
  /// poll bit -- from the fork slow path while anyone is parked.
  void notify_work() noexcept;

  /// Stage-3 idle backoff: publish, advertise kPollParked to the other
  /// workers, re-check for work, and futex-park on the work epoch (with
  /// the ST_PARK_TIMEOUT_US belt-and-braces timeout).  Returns once woken
  /// or when the recheck found work.
  void park_worker(Worker& self);

  /// Stage-3 variant for workers whose reactor has suspended waiters:
  /// block in epoll_wait (ST_IO_WAIT_US) instead of the futex so fd
  /// readiness, timer expiry and notify_work (via IoPoller::wake) all end
  /// the sleep.  Same publication contract as park_worker.
  void io_block_worker(Worker& self);

  /// Workers currently blocked inside their reactor's epoll_wait.
  unsigned io_blocked_workers() const noexcept {
    return io_blocked_.load(std::memory_order_acquire);
  }

  /// Post kPollSample to every worker (monitor tick / stats()).
  void request_sample_all() const noexcept;

 private:
  void inject(std::function<void()> fn);

  Topology topo_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> done_{false};
  std::unique_ptr<Monitor> monitor_;
  int metrics_provider_ = -1;
  IdlePolicy idle_;

  stu::Spinlock inject_lock_;
  std::vector<std::function<void()>> injected_;
  std::atomic<std::size_t> injected_count_{0};

  /// Per-worker stealable-work depths (fork_deque + readyq), published
  /// from each owner's slow path; one cache line per worker.
  std::vector<stu::CacheAligned<std::atomic<std::uint32_t>>> published_load_;
  /// Futex word: bumped whenever stealable work appears.  32-bit by futex
  /// contract; wraparound is harmless (pure inequality check).
  alignas(stu::kCacheLine) std::atomic<std::uint32_t> work_epoch_{0};
  std::atomic<unsigned> parked_{0};
  std::atomic<unsigned> io_blocked_{0};
  /// Futex-park wakeups per steal domain (bumped by the waking worker).
  std::vector<stu::CacheAligned<std::atomic<std::uint64_t>>> domain_idle_wakes_;
  /// One cross-domain probe per domain at a time: choose_victim_hier
  /// CASes its thief's domain slot before returning a remote victim and
  /// try_steal_and_run releases it when that negotiation resolves.  The
  /// rest of the domain keeps scanning locally -- a remote batch lands
  /// on the representative's readyq and feeds them through local steals.
  std::vector<stu::CacheAligned<std::atomic<std::uint32_t>>> domain_remote_gate_;
};

// ---------------------------------------------------------------------
// Core primitives.  All of these must be called on a worker (i.e. from
// inside Runtime::run's dynamic extent); fork/suspend/restart/resume
// assert this in debug builds.
// ---------------------------------------------------------------------

namespace detail {

/// Non-template part of fork: runs `invoke(closure)` on stacklet `s` as a
/// new fine-grain thread, pushing the caller's continuation as a fork
/// record.  Returns when the child finishes or suspends, or -- if the
/// record was stolen -- on the thief.
void fork_impl(void (*invoke)(void*), void* closure, Stacklet* s);

Stacklet* allocate_stacklet();

[[noreturn]] void report_escaped_exception() noexcept;

template <typename Fn>
void invoke_closure(void* p) {
  Fn* fn = static_cast<Fn*>(p);
  try {
    (*fn)();
  } catch (...) {
    fn->~Fn();
    report_escaped_exception();
  }
  fn->~Fn();
}

}  // namespace detail

/// Asynchronous call: run `f` as a new fine-grain thread.  The child runs
/// immediately (LIFO); the caller continues when the child finishes or
/// suspends, or earlier on another worker if the caller's continuation is
/// stolen.  The callable is copied/moved into the child (a stolen caller
/// may leave the fork site before the child completes).
template <typename F>
void fork(F&& f) {
  using Fn = std::decay_t<F>;
  Stacklet* s = detail::allocate_stacklet();
  static_assert(sizeof(Fn) <= Stacklet::kClosureBytes,
                "fork closure too large: capture by pointer/reference instead");
  Fn* closure = new (s->closure_area()) Fn(std::forward<F>(f));
  detail::fork_impl(&detail::invoke_closure<Fn>, closure, s);
}

/// Blocks the current fine-grain thread, filling *c so that resume(c) /
/// restart(c) can continue it later.  Control reaches the nearest fork
/// point, exactly like the paper's suspend(c, 1).  If `after` is given it
/// runs on the continued-to context once this thread's stack is
/// quiescent -- use it to release the lock that protects *c's publication
/// (closes the lost-wakeup race).
void suspend(Continuation* c, void (*after)(void*) = nullptr, void* arg = nullptr);

/// LTC resume: c enters the tail of the current worker's readyq; it will
/// run when the worker's chain empties or when it is stolen.
void resume(Continuation* c);

/// Immediate restart: the caller becomes c's parent and c runs now; the
/// caller continues when c finishes or suspends (or on a thief).
void restart(Continuation* c);

/// Serve pending steal requests.  Called automatically at every child's
/// entry (the parent continuation is stealable by then); insert manually
/// into long fork-free stretches (the paper inserts polls following
/// Feeley's scheme; the apps do it through Exec::poll()).
void poll();

/// True when the calling OS thread is a worker.
bool on_worker() noexcept;

/// Id of the current worker (precondition: on_worker()).
unsigned worker_id() noexcept;

}  // namespace st
