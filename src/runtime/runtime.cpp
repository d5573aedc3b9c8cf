#include "runtime/runtime.hpp"

#include <cassert>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <semaphore>
#include <sstream>
#include <string>
#include <string_view>

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "runtime/annotate.hpp"
#include "runtime/monitor.hpp"
#include "util/metrics.hpp"
#include "util/sched_log.hpp"
#include "util/trace_export.hpp"

namespace st {

constinit thread_local Worker* tl_worker = nullptr;

namespace {

constexpr int kStealSpinLimit = 512;

/// The exit message of a detached child: release its stacklet, run by
/// the context it exits to.  (A joined child's fork site releases the
/// stacklet inline instead.)
void release_stacklet_cb(void* p) {
  auto* s = static_cast<Stacklet*>(p);
  // Owner fast path: a child that finished on its home worker pops its
  // slot directly; migrated completions take the cross-worker retire
  // path.
  Worker* w = tl_worker;
  if (w != nullptr && s->region == &w->region()) {
    w->region().release_local(s);
  } else {
    StackRegion::release(s);
  }
}

// -- futex plumbing for the idle sleep ----------------------------------
// The native runtime is Linux-only already (ELF context switch), so the
// sleep uses SYS_futex directly.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                long timeout_us) {
  timespec ts{timeout_us / 1000000, (timeout_us % 1000000) * 1000};
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAIT_PRIVATE, expected, &ts, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>& word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
}

// -- crash-dump registry of live runtimes ------------------------------
// The fatal-signal hook (util/metrics.hpp) walks this to print each live
// runtime's logical-stack dump.  try_lock: the fault may have happened
// under this mutex.
std::mutex& live_runtimes_lock() {
  static std::mutex m;
  return m;
}
std::vector<Runtime*>& live_runtimes() {
  static std::vector<Runtime*> v;
  return v;
}

void crash_dump_runtimes() {
  std::unique_lock<std::mutex> hold(live_runtimes_lock(), std::try_to_lock);
  if (!hold.owns_lock()) return;
  for (Runtime* rt : live_runtimes()) {
    const std::string dump = dump_runtime_state(*rt);
    std::fwrite(dump.data(), 1, dump.size(), stderr);
  }
}

/// Consume a continuation's suspension timestamp into the dispatching
/// worker's suspend->restart latency histogram.
inline void record_resume_latency(Worker* w, Continuation* c) noexcept {
  if (c->t_suspend != 0) {
    if (stu::metrics_enabled()) {
      const std::uint64_t now = stu::trace_clock();
      if (now > c->t_suspend) {
        w->metrics().suspend_to_restart.record(now - c->t_suspend);
      }
    }
    c->t_suspend = 0;
  }
}

/// Calls f(name, unit, scale, merged) for every ST_WORKER_HISTOGRAMS
/// row, in table order, with the row merged over all workers and `scale`
/// converting its samples to `unit`.
template <class F>
void for_each_histogram(const std::vector<std::unique_ptr<Worker>>& workers, F&& f) {
  const double ns = stu::trace_ns_per_tick();
  auto merge = [&](stu::LogHistogram WorkerMetrics::*h) {
    stu::HistogramSnapshot merged;
    for (const auto& w : workers) merged.merge((w->metrics().*h).snapshot());
    return merged;
  };
#define ST_HISTOGRAM_VISIT(member, unit) \
  f(#member, #unit, std::string_view(#unit) == "ns" ? ns : 1.0, merge(&WorkerMetrics::member));
  ST_WORKER_HISTOGRAMS(ST_HISTOGRAM_VISIT)
#undef ST_HISTOGRAM_VISIT
}

}  // namespace

// ---------------------------------------------------------------------
// Core primitives
// ---------------------------------------------------------------------

namespace detail {

Stacklet* fork_begin(void (*hook)(void*), void* hook_arg) {
  Worker* w = tl_worker;
  assert(w != nullptr && "st::fork must be called on a worker");
  Stacklet* s = w->region().allocate();
  // The paper's "a fork costs about a procedure call": two plain
  // increments, one relaxed load of the poll word, one predictable
  // branch.  Trace events hide behind the word here; steal service,
  // mirror publication and futex pokes wait for the child's entry poll.
  ++w->stats().forks;
  w->heartbeat();
  if (w->poll_word() & Worker::kPollFeatures) [[unlikely]] w->fork_poll_slow(s);
  s->parent.t_suspend = 0;  // heap-fallback headers start uninitialised
  s->exit_msg.run = hook;   // run by complete_child only if detached
  s->exit_msg.arg = hook_arg;
  w->fork_deque().push_head(&s->parent);
  w->maybe_publish_depth();
  return s;
}

[[gnu::noinline]] ST_NO_TSAN_FRAME ContextExit complete_child(Stacklet* s) {
  Worker* w = tl_worker;
  ++w->stats().tasks_completed;
  w->trace(stu::kTraceTaskComplete, reinterpret_cast<std::uintptr_t>(s));
  stu::OwnerDeque<Continuation*>& deque = w->fork_deque();
  if (!deque.empty() && deque.peek(0) == &s->parent) [[likely]] {
    // Joined: return to the fork site with the message it recognises;
    // it releases the stacklet.  The hook in exit_msg stays unrun.
    deque.pop_head();
#if ST_TSAN_FIBERS
    __tsan_switch_to_fiber(s->parent.fiber, 0);
#endif
    return {s->parent.sp, &s->exit_msg};
  }
  // Detached: the parent record was stolen or consumed by a suspend.
  // Run the fork's hook while this stack is still live, then hand the
  // stacklet's release to the context exited to, through the header
  // (the stacklet must outlive this stack).
  const SwitchMsg hook = s->exit_msg;
  s->exit_msg.run = &release_stacklet_cb;
  s->exit_msg.arg = s;
  if (hook.run != nullptr) hook.run(hook.arg);
  Continuation* parent = deque.empty() ? nullptr : deque.pop_head();
  void* target = parent != nullptr ? parent->sp : w->scheduler_context().sp;
#if ST_TSAN_FIBERS
  s->exit_msg.dead_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(
      parent != nullptr ? parent->fiber : w->scheduler_context().fiber, 0);
#endif
  return {target, &s->exit_msg};
}

[[noreturn]] void report_escaped_exception() noexcept {
  std::fprintf(stderr,
               "stackthreads-mp: an exception escaped a forked computation; "
               "exceptions cannot propagate across a fork boundary "
               "(frames of the parent may already be detached). Aborting.\n");
  std::terminate();
}

}  // namespace detail

void suspend(Continuation* c, void (*after)(void*), void* arg) {
  Worker* w = tl_worker;
  assert(w != nullptr && "st::suspend must be called on a worker");
  ++w->stats().suspends;
  w->heartbeat();
  w->trace(stu::kTraceSuspend, reinterpret_cast<std::uintptr_t>(c));
  // Everything done so far happens-before whoever resumes through `c`
  // (the matching acquire sits after the st_ctx_swap below).
  hb::release(c, stu::kSchedHbCtx);
  c->t_suspend = stu::metrics_enabled() ? stu::trace_clock() : 0;
  SwitchMsg m{after, arg};
  SwitchMsg* mp = after != nullptr ? &m : nullptr;
  void* target;
#if ST_TSAN_FIBERS
  c->fiber = __tsan_get_current_fiber();
#endif
  if (!w->fork_deque().empty()) {
    Continuation* p = w->fork_deque().pop_head();
    target = p->sp;
#if ST_TSAN_FIBERS
    __tsan_switch_to_fiber(p->fiber, 0);
#endif
  } else {
    target = w->scheduler_context().sp;
#if ST_TSAN_FIBERS
    __tsan_switch_to_fiber(w->scheduler_context().fiber, 0);
#endif
  }
  auto* back = static_cast<SwitchMsg*>(st_ctx_swap(&c->sp, target, mp));
  // Resumed, possibly on a different worker: join the clock of whoever
  // handed `c` back (resume/restart re-release the token, and their
  // clocks cover the suspender's by the lock/steal edges that delivered
  // `c` to them, so the replace loses nothing).
  hb::acquire(c, stu::kSchedHbCtx);
  run_switch_msg(back);
}

void resume(Continuation* c) {
  Worker* w = tl_worker;
  assert(w != nullptr && "st::resume must be called on a worker");
  ++w->stats().resumes;
  w->heartbeat();
  w->trace(stu::kTraceResume, reinterpret_cast<std::uintptr_t>(c));
  hb::release(c, stu::kSchedHbCtx);
  w->readyq().push_tail(c);
  // The readyq tail is immediately stealable: publish it, and run the
  // slow path if thieves are parked (they must be woken) or waiting.
  w->publish_depth();
  if (w->poll_word() & (Worker::kPollSteal | Worker::kPollParked)) {
    w->poll_slow();
  }
}

void restart(Continuation* c) {
  Worker* w = tl_worker;
  assert(w != nullptr && "st::restart must be called on a worker");
  w->heartbeat();
  w->trace(stu::kTraceRestart, reinterpret_cast<std::uintptr_t>(c));
  hb::release(c, stu::kSchedHbCtx);
  record_resume_latency(w, c);
  Continuation parent;
  w->fork_deque().push_head(&parent);
  w->maybe_publish_depth();
#if ST_TSAN_FIBERS
  parent.fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(c->fiber, 0);
#endif
  auto* back = static_cast<SwitchMsg*>(st_ctx_swap(&parent.sp, c->sp, nullptr));
  run_switch_msg(back);
}

void poll() {
  Worker* w = tl_worker;
  if (w != nullptr) w->serve_steal_request();
}

bool on_worker() noexcept { return tl_worker != nullptr; }

unsigned worker_id() noexcept {
  assert(tl_worker != nullptr);
  return tl_worker->id();
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

Worker::Worker(Runtime& rt, unsigned id, std::size_t stacklet_bytes, std::size_t region_slots)
    : rt_(rt),
      id_(id),
      region_(stacklet_bytes, region_slots),
      rng_(0x5157'1ead'0000'0000ULL + id) {
  // Trace/metrics are configured from the environment before workers are
  // constructed (Runtime ctor); the bit is refreshed on every slow poll.
  if (stu::metrics_enabled() || stu::trace_mask() != 0) {
    poll_word_.store(kPollFeatures, std::memory_order_relaxed);
  }
}

Worker::~Worker() {
  delete io_poller_.load(std::memory_order_acquire);
}

void Worker::trace_record(stu::TraceEvent ev, std::uint64_t a, std::uint64_t b) noexcept {
  trace_.emit(ev, static_cast<std::uint16_t>(id_), stu::kTraceSrcRuntime, a, b);
}

void Worker::serve_steal_request() {
  heartbeat();  // every poll point is a liveness signal
  if (poll_word() != 0) [[unlikely]] poll_slow();
}

void Worker::poll_slow() noexcept {
  // Clear the steal bit *before* acting on it: a thief that CASes the
  // port after our exchange re-sets it and is seen at the next poll.
  hb::access(this, stu::kSchedAccessAtomic, hb::kSitePollWord);
  const std::uint32_t bits = poll_word_.fetch_and(~kPollSteal, std::memory_order_acquire);
  if (bits & kPollSteal) {
    StealRequest* r = port_.exchange(nullptr, std::memory_order_acq_rel);
    if (r != nullptr) {
      // Figure 12: hand out the tail of the lazy task queue -- readyq
      // tail if any, otherwise the outermost parent continuation.
      Continuation* task = nullptr;
      if (!readyq_.empty()) {
        task = readyq_.pop_tail();
        // The stolen readyq tail leaves this worker's queue: close the
        // resume edge here; the thief's side is the steal flow.
        trace(stu::kTraceResumeRun, reinterpret_cast<std::uintptr_t>(task));
      } else if (!fork_deque_.empty()) {
        task = fork_deque_.pop_tail();
      }
      if (task != nullptr) {
        r->reply = *task;
        ++stats_.steals_served;
        trace(stu::kTraceStealServed, reinterpret_cast<std::uintptr_t>(r),
              reinterpret_cast<std::uintptr_t>(task));
        if (stu::sched_recording()) [[unlikely]] {
          stu::sched_record(stu::kSchedServe, static_cast<std::uint16_t>(id_),
                            stu::kTraceSrcRuntime, r->thief, 1, &trace_);
        }
        r->state.store(StealRequest::kServed, std::memory_order_release);
      } else {
        trace(stu::kTraceStealRejected, reinterpret_cast<std::uintptr_t>(r));
        if (stu::sched_recording()) [[unlikely]] {
          stu::sched_record(stu::kSchedServe, static_cast<std::uint16_t>(id_),
                            stu::kTraceSrcRuntime, r->thief, 0, &trace_);
        }
        r->state.store(StealRequest::kRejected, std::memory_order_release);
      }
      publish_depth();  // occupancy changed (or a stale value cost a reject)
    }
  }
  if (bits & kPollSample) {
    // Publish *then* clear: stats() reads the mirrors as soon as it sees
    // the bit clear.  A sample posted between the two is answered by this
    // publish -- nothing runs on this worker in between.
    publish_stats();
    poll_word_.fetch_and(~kPollSample, std::memory_order_release);
  }
  if (bits & kPollParked) {
    // Someone futex-parked while we were (presumably) making work: if we
    // have anything stealable, poke the epoch so they come back.  The
    // bit stays set otherwise -- a later fork will do the wake.
    if (!fork_deque_.empty() || !readyq_.empty()) {
      poll_word_.fetch_and(~kPollParked, std::memory_order_relaxed);
      rt_.notify_work();
    }
  }
  if (stu::metrics_enabled() || stu::trace_mask() != 0) {
    poll_word_.fetch_or(kPollFeatures, std::memory_order_relaxed);
  } else {
    poll_word_.fetch_and(~kPollFeatures, std::memory_order_relaxed);
  }
}

void Worker::fork_poll_slow(Stacklet* s) noexcept {
  if (s->region != nullptr) {
    trace(stu::kTraceStackletAlloc, reinterpret_cast<std::uintptr_t>(s), s->slot);
  } else {
    trace(stu::kTraceHeapFallback, reinterpret_cast<std::uintptr_t>(s));
  }
  trace(stu::kTraceFork, reinterpret_cast<std::uintptr_t>(s));
}

void Worker::publish_stats() noexcept {
#define ST_COUNTER_PUBLISH(field) mirror_.field.store(stats_.field, std::memory_order_relaxed);
  ST_WORKER_COUNTERS(ST_COUNTER_PUBLISH, ST_COUNTER_SKIP)
#undef ST_COUNTER_PUBLISH
  hb_mirror_.store(hb_, std::memory_order_relaxed);
  publish_depth();
}

void Worker::publish_depth() noexcept {
  rt_.publish_load(
      id_, static_cast<std::uint32_t>(fork_deque_.size() + readyq_.size()));
}

void Worker::sample_depth() noexcept {
  publish_depth();
  if (stu::metrics_enabled()) {
    metrics_.fork_deque_depth.record(fork_deque_.size());
  }
}

bool Worker::try_steal_and_run() {
  // Schedule recording (util/sched_log.hpp) logs one kSchedVictim per
  // *posted* probe (after the port CAS, so every logged probe has a
  // matching kSchedStealResult); idle-loop calls that found no victim are
  // not logged, keeping spin logs small.  Native logs are observations
  // for the race analysis and the trace timeline: replay is STVM-only.
  Worker* victim = rt_.choose_victim(rng_, id_);
  if (victim == nullptr) return false;
  set_phase(WorkerPhase::kStealing);
  const bool timed = stu::metrics_enabled();
  const std::uint64_t t0 = timed ? stu::trace_clock() : 0;

  StealRequest req;
  req.thief = static_cast<std::uint32_t>(id_);
  StealRequest* expected = nullptr;
  if (!victim->port().compare_exchange_strong(expected, &req, std::memory_order_acq_rel)) {
    set_phase(WorkerPhase::kIdle);
    return false;  // someone else is already negotiating with this victim
  }
  // Port claimed: raise the victim's poll bit (after the CAS, so a victim
  // that clears the bit concurrently re-observes the request next poll).
  // This is a negotiation -- a lost CAS is not -- and it ends in exactly
  // one of received / rejected / cancelled.  The attempt is counted with
  // its outcome, by this thread, so every published snapshot satisfies
  // steal_attempts == received + rejected + cancelled.
  hb::access(victim, stu::kSchedAccessAtomic, hb::kSitePollWord);
  victim->post_poll_bits(kPollSteal);
  trace(stu::kTraceStealPosted, reinterpret_cast<std::uintptr_t>(&req), victim->id());
  if (stu::sched_recording()) [[unlikely]] {
    stu::sched_record(stu::kSchedVictim, static_cast<std::uint16_t>(id_),
                      stu::kTraceSrcRuntime, victim->id(), 0, &trace_);
  }

  int spins = 0;
  bool cancel_tried = false;
  while (req.state.load(std::memory_order_acquire) == StealRequest::kPosted) {
    serve_steal_request();  // stay responsive to requests aimed at us
    if (++spins > kStealSpinLimit && !cancel_tried) {
      cancel_tried = true;
      StealRequest* me = &req;
      if (victim->port().compare_exchange_strong(me, nullptr, std::memory_order_acq_rel)) {
        // Withdrawn before the victim saw it.  Cancels get their own
        // series: folding them into steal_latency skewed its p99 toward
        // the spin-limit constant.
        ++stats_.steal_attempts;
        ++stats_.steals_cancelled;
        trace(stu::kTraceStealCancelled, reinterpret_cast<std::uintptr_t>(&req), victim->id());
        if (stu::sched_recording()) [[unlikely]] {
          stu::sched_record(stu::kSchedStealResult, static_cast<std::uint16_t>(id_),
                            stu::kTraceSrcRuntime, stu::kSchedOutcomeCancelled,
                            victim->id(), &trace_);
        }
        if (timed) metrics_.steal_cancel_latency.record(stu::trace_clock() - t0);
        set_phase(WorkerPhase::kIdle);
        return false;
      }
      // The victim claimed the request; it will store a final state soon.
    }
    std::this_thread::yield();
  }
  // The negotiation resolved (served or rejected): its full post->resolve
  // time is the steal latency.
  if (timed) metrics_.steal_latency.record(stu::trace_clock() - t0);
  ++stats_.steal_attempts;

  const bool served = req.state.load(std::memory_order_acquire) == StealRequest::kServed;
  if (stu::sched_recording()) [[unlikely]] {
    stu::sched_record(stu::kSchedStealResult, static_cast<std::uint16_t>(id_),
                      stu::kTraceSrcRuntime,
                      served ? stu::kSchedOutcomeServed : stu::kSchedOutcomeRejected,
                      victim->id(), &trace_);
  }
  if (!served) {
    ++stats_.steals_rejected;
    set_phase(WorkerPhase::kIdle);
    return false;
  }
  ++stats_.steals_received;
  heartbeat();
  trace(stu::kTraceStealReceived, reinterpret_cast<std::uintptr_t>(&req), victim->id());
  record_resume_latency(this, &req.reply);
  set_phase(WorkerPhase::kWorking);
  attach_and_run(req.reply);
  set_phase(WorkerPhase::kIdle);
  return true;
}

void Worker::attach_and_run(Continuation target, SwitchMsg* msg) {
#if ST_TSAN_FIBERS
  // Always entered from the scheduler loop, i.e. on this OS thread's own
  // fiber: record it so tasks switching back to sched_ctx_ can announce
  // the transfer.
  sched_ctx_.fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(target.fiber, 0);
#endif
  auto* back = static_cast<SwitchMsg*>(st_ctx_swap(&sched_ctx_.sp, target.sp, msg));
  run_switch_msg(back);
}

void Worker::idle_backoff_step(int& steps) {
  // The idle episode: kIdleSpins pause-spins, then one sleep.  Fixed by
  // measurement (EXPERIMENTS.md, "Idle path").
  constexpr int kIdleSpins = 64;
  if (steps == 0) {
    // Entering an idle episode: our deques are empty -- say so, so
    // thieves stop probing us and the sleep's recheck sees the truth.
    publish_depth();
    // Drain any already-ready I/O before backing off: a resumed waiter
    // lands on our readyq and ends the episode immediately.
    IoPoller* io = io_poller();
    if (io != nullptr && io->has_pending() && io->poll(0) > 0) return;
  }
  if (steps < kIdleSpins) {
    ++steps;
    stu::cpu_pause();
    return;
  }
  steps = 0;
  rt_.sleep_worker(*this);
}

void Worker::scheduler_loop() {
  tl_worker = this;
  int idle_steps = 0;
  while (!rt_.done()) {
    serve_steal_request();
    // Busy workers still drain their epoll set, decimated so the syscall
    // stays off the per-task fast path (idle workers poll every episode).
    IoPoller* io = io_poller();
    if (io != nullptr && io->has_pending() && --io_poll_countdown_ <= 0) {
      io_poll_countdown_ = kIoPollEvery;
      io->poll(0);
    }
    if (!readyq_.empty()) {
      // Figure 12: schedule the head of readyq when the chain is empty.
      Continuation* c = readyq_.pop_head();
      trace(stu::kTraceResumeRun, reinterpret_cast<std::uintptr_t>(c));
      record_resume_latency(this, c);
      set_phase(WorkerPhase::kWorking);
      attach_and_run(*c);
      set_phase(WorkerPhase::kIdle);
      idle_steps = 0;
      continue;
    }
    std::function<void()> root;
    if (rt_.pop_injected(root)) {
      Stacklet* s = region_.allocate();
      if (s->region != nullptr) {
        trace(stu::kTraceStackletAlloc, reinterpret_cast<std::uintptr_t>(s), s->slot);
      } else {
        trace(stu::kTraceHeapFallback, reinterpret_cast<std::uintptr_t>(s));
      }
      using Root = std::function<void()>;
      static_assert(sizeof(Root) <= Stacklet::kClosureBytes);
      new (s->closure_area()) Root(std::move(root));
      s->exit_msg = SwitchMsg{};  // a root has no completion hook
      void* sp = st_ctx_prepare(s->stack_base(), s->stack_bytes(),
                                &detail::fork_entry<Root>, s);
      Continuation root_ctx{sp};
#if ST_TSAN_FIBERS
      root_ctx.fiber = __tsan_create_fiber(0);
#endif
      set_phase(WorkerPhase::kWorking);
      attach_and_run(root_ctx);
      set_phase(WorkerPhase::kIdle);
      idle_steps = 0;
      continue;
    }
    if (try_steal_and_run()) {
      idle_steps = 0;
      continue;
    }
    idle_backoff_step(idle_steps);
  }
  // Shutdown: publish the final counters (stats() reads mirrors after the
  // join) and resolve any request still parked on our port so no thief
  // spins on a vanished victim.
  publish_stats();
  StealRequest* r = port_.exchange(nullptr, std::memory_order_acq_rel);
  if (r != nullptr) r->state.store(StealRequest::kRejected, std::memory_order_release);
  tl_worker = nullptr;
}

// ---------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------

Runtime::Runtime(RuntimeConfig cfg) {
  stu::trace_configure_from_env();  // first-runtime process configuration
  stu::metrics_configure_from_env();
  stu::sched_configure_from_env();
  if (cfg.workers == 0) cfg.workers = 1;
  published_load_ =
      std::vector<stu::CacheAligned<std::atomic<std::uint32_t>>>(cfg.workers);
  workers_.reserve(cfg.workers);
  for (unsigned i = 0; i < cfg.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i, cfg.stacklet_bytes, cfg.region_slots));
    workers_.back()->set_solo(cfg.workers == 1);
  }
  // Observability wiring before the workers start: crash/stall dumps must
  // be able to reach the rings and this runtime from the first event on.
  for (auto& w : workers_) stu::trace_ring_register(&w->trace_ring());
  {
    std::lock_guard<std::mutex> hold(live_runtimes_lock());
    live_runtimes().push_back(this);
  }
  stu::crash_add_hook(&crash_dump_runtimes);
  metrics_provider_ =
      stu::MetricsRegistry::instance().add_provider([this] { return metrics_json(); });
  const long stall_ms = cfg.stall_ms >= 0 ? cfg.stall_ms : stu::metrics_stall_ms();
  const long period_ms =
      cfg.metrics_period_ms >= 0 ? cfg.metrics_period_ms : stu::metrics_period_ms();
  if (stall_ms > 0 || period_ms > 0) {
    MonitorConfig mc;
    mc.stall_ms = stall_ms;
    mc.snapshot_period_ms = period_ms;
    mc.snapshot_path = stu::metrics_path();
    monitor_ = std::make_unique<Monitor>(*this, std::move(mc));
  }
  threads_.reserve(cfg.workers);
  for (unsigned i = 0; i < cfg.workers; ++i) {
    threads_.emplace_back([this, i] { workers_[i]->scheduler_loop(); });
  }
}

Runtime::~Runtime() {
  monitor_.reset();  // stop sampling before teardown
  done_.store(true, std::memory_order_release);
  notify_work();  // kick parked workers so they observe done_
  for (auto& t : threads_) t.join();
  {
    std::lock_guard<std::mutex> hold(live_runtimes_lock());
    auto& v = live_runtimes();
    std::erase(v, this);
  }
  // Workers are quiescent: drain their trace rings into the process
  // sink (written at exit when ST_TRACE is set) and honour ST_STATS.
  for (auto& w : workers_) {
    if (!w->trace_ring().empty()) stu::trace_flush(w->trace_ring());
    stu::trace_ring_unregister(&w->trace_ring());
  }
  // Final counters are in: let the registry retain this runtime's last
  // render for the atexit ST_METRICS snapshot.
  if (metrics_provider_ >= 0) {
    stu::MetricsRegistry::instance().remove_provider(metrics_provider_);
  }
  if (stu::trace_stats_enabled()) {
    std::string line;
    stats().for_each([&](const char* key, std::uint64_t v) {
      line += std::string(" ") + key + "=" + std::to_string(v);
    });
    std::fprintf(stderr, "[st-stats runtime workers=%u]%s\n", num_workers(), line.c_str());
    if (stu::metrics_enabled()) {
      // ST_STATS grows latency percentile tables when metrics were on.
      for_each_histogram(workers_, [](const char* name, const char* unit, double scale,
                                      const stu::HistogramSnapshot& merged) {
        if (merged.count == 0) return;
        const stu::Summary sum = merged.summarize();
        std::fprintf(stderr,
                     "[st-stats histogram %s%s] count=%llu min=%.0f p50=%.0f "
                     "p90=%.0f p99=%.0f max=%.0f mean=%.1f\n",
                     name, std::string_view(unit) == "ns" ? "_ns" : "",
                     static_cast<unsigned long long>(merged.count), sum.min * scale,
                     sum.median * scale, sum.p90 * scale, sum.p99 * scale,
                     sum.max * scale, sum.mean * scale);
      });
    }
  }
}

void Runtime::inject(std::function<void()> fn) {
  {
    stu::SpinGuard g(inject_lock_);
    injected_.push_back(std::move(fn));
    injected_count_.fetch_add(1, std::memory_order_acq_rel);
  }
  notify_work();  // a parked fleet must see the root
}

bool Runtime::pop_injected(std::function<void()>& out) {
  if (injected_count_.load(std::memory_order_acquire) == 0) return false;
  stu::SpinGuard g(inject_lock_);
  if (injected_.empty()) return false;
  injected_count_.fetch_sub(1, std::memory_order_acq_rel);
  out = std::move(injected_.front());
  injected_.erase(injected_.begin());
  if (stu::sched_recording()) [[unlikely]] {
    // Only scheduler loops pop roots, so tl_worker is the claimer.
    stu::sched_record(stu::kSchedRoot, static_cast<std::uint16_t>(tl_worker->id()),
                      stu::kTraceSrcRuntime, injected_.size(), 0,
                      &tl_worker->trace_ring());
  }
  return true;
}

Worker* Runtime::choose_victim(stu::Xoshiro256& rng, unsigned self) {
  const unsigned n = num_workers();
  if (n <= 1) return nullptr;
  // Steer by the published depth array -- the runtime analogue of
  // steering by the Section 5 exported set.  Rotating start so equal
  // loads spread thieves instead of dogpiling worker 0.
  const unsigned start = static_cast<unsigned>(rng.below(n));
  std::uint32_t best_load = 0;
  Worker* best = nullptr;
  for (unsigned k = 0; k < n; ++k) {
    unsigned i = start + k;
    if (i >= n) i -= n;
    if (i == self) continue;
    const std::uint32_t load = published_load(i);
    if (load > best_load) {
      best_load = load;
      best = workers_[i].get();
    }
  }
  // All-zero: nothing is advertised as stealable.  Publication is
  // transition-exact (empty->nonempty always publishes), so don't
  // probe blindly -- let the idle backoff take over.
  return best;
}

void Runtime::notify_work() noexcept {
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) futex_wake_all(work_epoch_);
  // Workers in epoll_wait get an eventfd poke, and only they: a wake()
  // that lands before the epoll_wait is sticky (the eventfd stays
  // readable), so that sleep has no lost-wakeup window at all.
  if (io_blocked_.load(std::memory_order_seq_cst) > 0) {
    for (auto& w : workers_) {
      if (w->io_blocked()) w->io_poller()->wake();
    }
  }
}

void Runtime::sleep_worker(Worker& self) {
  // Sleep protocol (lost-wakeup-free against notify_work):
  //   sleeper:  publish ; count++ (parked_ or io_blocked_) ; mark ;
  //             [futex: advertise kPollParked] ; e = epoch ; recheck ;
  //             sleep (futex: while epoch == e)
  //   producer: publish work ; epoch++ ; wake each kind counted > 0
  // The counter accesses are seq_cst: if the producer's read misses our
  // increment, its epoch bump precedes our epoch read in the total order,
  // so the futex wait returns at once (value changed) and the acquire on
  // the epoch makes the published work visible to the recheck.  The
  // epoll sleep needs no epoch: its eventfd wake is sticky.  Publication
  // comes first: stats() reads a sleeper's mirror as current, and thieves
  // must see our zero depth.  kIdleSleepUs is only a backstop.
  IoPoller* io = self.io_poller();
  const bool epoll = io != nullptr && io->has_pending();
  std::atomic<unsigned>& sleepers = epoll ? io_blocked_ : parked_;
  self.publish_stats();
  sleepers.fetch_add(1, std::memory_order_seq_cst);
  self.set_sleep(epoll ? Worker::Sleep::kEpoll : Worker::Sleep::kFutex);
  if (!epoll) {
    for (auto& w : workers_) {
      if (w.get() != &self) w->post_poll_bits(Worker::kPollParked);
    }
  }
  const std::uint32_t epoch = work_epoch_.load(std::memory_order_seq_cst);
  bool work = done() || injected_count_.load(std::memory_order_acquire) > 0 ||
              (self.poll_word() & (Worker::kPollSteal | Worker::kPollSample)) != 0;
  for (unsigned i = 0; !work && i < num_workers(); ++i) {
    work = i != self.id() && published_load(i) > 0;
  }
  if (epoll) {
    // Even when the recheck found work, poll nonblockingly: ready fds
    // feed the readyq ahead of a steal attempt.
    io->poll(work ? 0 : kIdleSleepUs);
  } else if (!work) {
    // Park/wake edges are recorded for the schedule log, so it shows who
    // was asleep around a failure.
    if (stu::sched_recording()) [[unlikely]] {
      stu::sched_record(stu::kSchedPark, static_cast<std::uint16_t>(self.id()),
                        stu::kTraceSrcRuntime, epoch, 0, &self.trace_ring());
    }
    futex_wait(work_epoch_, epoch, kIdleSleepUs);
    // Bumped by the waking worker itself (one RMW per park, never on the
    // fast path).
    idle_wakes_.fetch_add(1, std::memory_order_relaxed);
    if (stu::sched_recording()) [[unlikely]] {
      stu::sched_record(stu::kSchedUnpark, static_cast<std::uint16_t>(self.id()),
                        stu::kTraceSrcRuntime,
                        work_epoch_.load(std::memory_order_seq_cst), 0,
                        &self.trace_ring());
    }
  }
  self.set_sleep(Worker::Sleep::kAwake);
  sleepers.fetch_sub(1, std::memory_order_seq_cst);
  // Service anything that landed while we slept (steal posts are
  // rejected fast rather than left to time out).
  if (self.poll_word() != 0) self.poll_slow();
}

void Runtime::request_sample_all() const noexcept {
  for (const auto& w : workers_) w->post_poll_bits(Worker::kPollSample);
}

void Runtime::run(std::function<void()> root) {
  std::binary_semaphore sem(0);
  inject([&root, &sem] {
    root();
    sem.release();
  });
  sem.acquire();
}

RuntimeStats Runtime::stats() const {
  // Quiesce-aware read: ask every worker to publish, then wait (bounded)
  // until each has either cleared the bit or parked (a parked worker
  // published immediately before sleeping, so its mirror is current).
  request_sample_all();
  Worker* self = tl_worker;
  if (self != nullptr && &self->runtime() != this) self = nullptr;
  if (self != nullptr) self->publish_stats();  // we can't wait on ourselves
  if (!done()) {
    // Generous: a healthy worker publishes within microseconds, so the
    // deadline only matters for wedged workers -- but a worker that is
    // merely starved for CPU (sanitizer builds on a loaded host) must
    // not yield a stale mirror.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    for (const auto& w : workers_) {
      if (w.get() == self) continue;
      // The acquire load pairs with the owner's release clear of
      // kPollSample after publishing (sleep_kind() pairs with the
      // release store made after the sleeper's own publish).
      while ((w->poll_word_acquire() & Worker::kPollSample) != 0 &&
             w->sleep_kind() == Worker::Sleep::kAwake &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  }
  RuntimeStats out;
  for (const auto& w : workers_) {
    const WorkerStatsMirror& m = w->stats_mirror();
    const StackRegion& r = w->region();
#define ST_COUNTER_ADD(field) out.field += m.field.load(std::memory_order_relaxed);
#define ST_COUNTER_ADD_REGION(field, getter) out.field += r.getter();
    ST_WORKER_COUNTERS(ST_COUNTER_ADD, ST_COUNTER_ADD_REGION)
#undef ST_COUNTER_ADD
#undef ST_COUNTER_ADD_REGION
  }
  return out;
}

std::string Runtime::metrics_json() const {
  const char* phase_names[] = {"idle", "working", "stealing"};
  const RuntimeStats agg = stats();
  std::ostringstream os;
  os << "{\"kind\":\"runtime\",\"workers\":" << workers_.size()
     << ",\"idle_wakes\":" << idle_wakes() << ",\"counters\":{";
  const char* sep = "";
  agg.for_each([&](const char* key, std::uint64_t v) {
    os << sep << '"' << key << "\":" << v;
    sep = ",";
  });
  os << "},";
  os << "\"per_worker\":[";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    StackRegion& r = w.region();
    // Section-5 set sizes at stacklet granularity: E = live (exported)
    // slots, R = retired slots below the bump pointer, X = the extended
    // extent (the bump pointer itself).  O(1) incremental counters.
    const std::size_t top = r.top();
    os << (i ? "," : "") << "{\"id\":" << w.id()
       << ",\"phase\":\"" << (static_cast<unsigned>(w.phase()) < 3
                                  ? phase_names[static_cast<unsigned>(w.phase())]
                                  : "?")
       << "\""
       << ",\"parked\":" << (w.parked() ? 1 : 0)
       << ",\"io_blocked\":" << (w.io_blocked() ? 1 : 0)
       << ",\"heartbeat\":" << w.heartbeat_count()
       << ",\"fork_deque\":" << w.fork_deque().size()
       << ",\"readyq\":" << w.readyq().size()
       << ",\"published_load\":" << published_load(w.id())
       << ",\"sets\":{\"E\":" << r.live_slots() << ",\"R\":" << r.retired_slots()
       << ",\"X\":" << top << "}"
       << ",\"region\":{\"top\":" << top << ",\"high_water\":" << r.high_water()
       << ",\"capacity\":" << r.capacity()
       << ",\"heap_fallbacks\":" << r.heap_fallbacks()
       << ",\"scavenges\":" << r.scavenges()
       << ",\"trims\":" << r.trims() << "}}";
  }
  os << "],";
  os << "\"histograms\":[";
  const char* hsep = "";
  for_each_histogram(workers_, [&](const char* name, const char* unit, double scale,
                                   const stu::HistogramSnapshot& merged) {
    os << hsep << merged.to_json(name, unit, scale);
    hsep = ",";
  });
  os << "]}";
  return os.str();
}

}  // namespace st
