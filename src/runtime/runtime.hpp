// Public API of the StackThreads/MP-style native runtime.
//
//   st::Runtime rt(4);                       // four workers (OS threads)
//   rt.run([] {
//     st::JoinCounter jc;                    // see sync/join_counter.hpp
//     st::fork(jc, [] { work_a(); });        // counted fork
//     st::fork(jc, [] { work_b(); });
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
};

/// Aggregated counters over all workers: every ST_WORKER_COUNTERS row.
struct RuntimeStats {
  ST_WORKER_COUNTERS(ST_COUNTER_FIELD, ST_COUNTER_FIELD)

  /// Calls f(key, value) for every counter, in table order (the order of
  /// metrics_json's "counters" object and of the ST_STATS line).
  template <class F>
  void for_each(F&& f) const {
#define ST_COUNTER_VISIT(field, ...) f(#field, field);
    ST_WORKER_COUNTERS(ST_COUNTER_VISIT, ST_COUNTER_VISIT)
#undef ST_COUNTER_VISIT
  }
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

  /// Workers currently blocked in futex_wait on the work epoch.
  unsigned parked_workers() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

  /// Futex-park wakeups: idle workers pulled back in by new work.
  std::uint64_t idle_wakes() const noexcept {
    return idle_wakes_.load(std::memory_order_relaxed);
  }
  /// Compatibility shim for perfbench/runtime_probe.hpp, its only reader.
  unsigned num_domains() const noexcept { return 1; }
  /// Compatibility shim for perfbench/runtime_probe.hpp, its only reader.
  std::uint64_t domain_idle_wakes(unsigned) const noexcept { return idle_wakes(); }

  // -- internal (used by workers / the monitor) --------------------------
  bool pop_injected(std::function<void()>& out);

  /// Victim selection for the idle path: scan the published-depth array
  /// for the most loaded worker (rotating start breaks ties fairly).
  /// Returns nullptr when nothing looks stealable.
  Worker* choose_victim(stu::Xoshiro256& rng, unsigned self);

  /// Publication side of the depth array (called by workers from their
  /// slow path and by the park/idle transitions).
  void publish_load(unsigned id, std::uint32_t load) noexcept {
    published_load_[id].value.store(load, std::memory_order_relaxed);
  }
  std::uint32_t published_load(unsigned id) const noexcept {
    return published_load_[id].value.load(std::memory_order_relaxed);
  }

  /// New-stealable-work signal: bump the work epoch, futex-wake the
  /// parked workers (only if there are any) and write the eventfd of each
  /// worker asleep in epoll_wait (only those).  Called on inject and --
  /// via the kPollParked poll bit, which only futex sleepers post -- from
  /// the poll slow path of a worker with stealable work.
  void notify_work() noexcept;

  /// The idle path's one sleep: publish the mirrors, mark this worker
  /// asleep, re-check for work, then block -- in its reactor's epoll_wait
  /// when fine-grain threads wait on its fds or timers (readiness, timer
  /// expiry and notify_work's eventfd all end that sleep), else in a futex
  /// wait on the work epoch.  Either sleep lasts at most kIdleSleepUs, a
  /// backstop: notify_work reaches both kinds of sleeper.  Returns once
  /// woken, or at once when the recheck found work.
  void sleep_worker(Worker& self);
  static constexpr long kIdleSleepUs = 2000;

  /// Workers currently blocked inside their reactor's epoll_wait.
  unsigned io_blocked_workers() const noexcept {
    return io_blocked_.load(std::memory_order_acquire);
  }

  /// Post kPollSample to every worker (monitor tick / stats()).
  void request_sample_all() const noexcept;

 private:
  void inject(std::function<void()> fn);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> done_{false};
  std::unique_ptr<Monitor> monitor_;
  int metrics_provider_ = -1;

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
  std::atomic<std::uint64_t> idle_wakes_{0};  ///< bumped by the waking worker
};

// ---------------------------------------------------------------------
// Core primitives.  All of these must be called on a worker (i.e. from
// inside Runtime::run's dynamic extent); fork/suspend/restart/resume
// assert this in debug builds.
// ---------------------------------------------------------------------

namespace detail {

/// The fork's bookkeeping before its stack switch, in one out-of-line
/// call: carve the child's stacklet, count the fork, beat the heartbeat,
/// run the features slow path, store the completion hook (run, arg) in
/// the header's exit_msg, push s->parent on the fork deque and publish
/// the depth when due.  It returns before the switch, so it adds no
/// return address to the nested chain.
Stacklet* fork_begin(void (*hook)(void*), void* hook_arg);

[[noreturn]] void report_escaped_exception() noexcept;

/// Completion of a forked computation.  Joined -- its parent record
/// s->parent is still at the fork-deque head, so the parent neither was
/// stolen nor resumed early -- it pops the record and returns to the
/// parent with &s->exit_msg untouched: the fork site recognises that
/// message and finishes the fork inline.  Detached, it runs the hook
/// fork_begin stored in exit_msg, rewrites exit_msg to "release this
/// stacklet" and continues at the fork-deque head or the scheduler.
/// Out of line so that its tl_worker read resolves the TLS address
/// afresh: the computation may have migrated, and an address fork_entry
/// computed before the closure ran would name the old OS thread's
/// worker.  Under TSan this announces the fiber switch and then returns,
/// so it carries no function-exit hook (ST_NO_TSAN_FRAME).
[[gnu::noinline]] ST_NO_TSAN_FRAME ContextExit complete_child(Stacklet* s);

/// Entry point of a forked computation running closure type Fn: called
/// by st_ctx_fork on the child's fresh stacklet (a root: by st_ctx_boot).
/// Its return is the switch to the next context (ContextEntry).  Being
/// specialised for Fn, it calls the closure directly, so each level of
/// fork nesting keeps only two runtime return addresses live (st_ctx_fork
/// and this one) and deep fork recursions stay within the return-stack
/// buffer (DESIGN.md §5.16).  Under TSan the closure call stays out of
/// line (g++ does not inline across differing sanitize attributes), so
/// user code keeps its instrumentation.
template <typename Fn>
ST_NO_TSAN_FRAME ContextExit fork_entry(void* raw_msg, void* arg) {
  run_switch_msg(static_cast<SwitchMsg*>(raw_msg));
  auto* s = static_cast<Stacklet*>(arg);
  // The fork point's steal poll.  It sits here, not before the switch,
  // because only now is the parent continuation on the fork deque with
  // its sp saved: a waiting thief gets it before this child runs a
  // (possibly long) fork-free stretch.
  Worker* w = tl_worker;
  if (w->poll_word() & Worker::kPollServe) [[unlikely]] w->poll_slow();
  Fn* fn = std::launder(reinterpret_cast<Fn*>(s->closure_area()));
  try {
    (*fn)();
  } catch (...) {
    fn->~Fn();
    report_escaped_exception();
  }
  fn->~Fn();
  return complete_child(s);
}

/// Forks `f` with a completion hook and reports how the child ended.
/// Returns true when the child finished under the caller (joined): its
/// stacklet is released here, inline, and `hook` never runs.  Returns
/// false when the child detached -- the caller was stolen, or the child
/// suspended -- and the child's completion will run hook(hook_arg), on
/// whichever worker it finishes, before it leaves its stack.  The hook
/// must not switch contexts (it may resume(), which only enqueues).
/// The stack switch is made here, at the fork site, with the caller's
/// continuation in the child's stacklet header.
template <typename F>
bool fork_run(F&& f, void (*hook)(void*), void* hook_arg) {
  using Fn = std::decay_t<F>;
  static_assert(sizeof(Fn) <= Stacklet::kClosureBytes,
                "fork closure too large: capture by pointer/reference instead");
  Stacklet* s = fork_begin(hook, hook_arg);
  new (s->closure_area()) Fn(std::forward<F>(f));
  // s->parent.sp is written by st_ctx_fork before the stack switch, and
  // only this worker dequeues the record (polling protocol), sequenced
  // after the switch -- so the head entry is never observed with an
  // unset sp.
  char* child_top = s->stack_base() + s->stack_bytes();
#if ST_TSAN_FIBERS
  void* child_fiber = __tsan_create_fiber(0);
  s->parent.fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(child_fiber, 0);
#endif
  auto* back = static_cast<SwitchMsg*>(
      st_ctx_fork(&s->parent.sp, child_top, &fork_entry<Fn>, s));
  if (back == &s->exit_msg) [[likely]] {
    // Joined: the child returned straight here, on this worker, and its
    // stacklet came from this worker's region -- the owner-side release
    // needs no TLS read.
#if ST_TSAN_FIBERS
    __tsan_destroy_fiber(child_fiber);
#endif
    if (StackRegion* r = s->region) [[likely]] {
      r->release_local(s);
    } else {
      StackRegion::release(s);
    }
    return true;
  }
  // Detached: this continuation was stolen and now runs on a thief, or
  // the child suspended.  `s` may be gone.
  run_switch_msg(back);
  return false;
}

}  // namespace detail

/// Asynchronous call: run `f` as a new fine-grain thread.  The child runs
/// immediately (LIFO); the caller continues when the child finishes or
/// suspends, or earlier on another worker if the caller's continuation is
/// stolen.  The callable is copied/moved into the child (a stolen caller
/// may leave the fork site before the child completes).  To wait for
/// the child, fork it counted: st::fork(JoinCounter&, f)
/// (sync/join_counter.hpp).
template <typename F>
void fork(F&& f) {
  detail::fork_run(std::forward<F>(f), nullptr, nullptr);
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
