// Per-worker epoll reactor: the thread->event transformation of the
// paper's Section 1.1 server motivation, built on the runtime's existing
// one-shot continuations.
//
// A fine-grain thread that would block on an fd does NOT block its
// worker.  It publishes a waiter into the fd's shared state, arms
// EPOLLONESHOT interest in a reactor, and st::suspend()s -- releasing the
// fd lock from the suspend after-callback, exactly the lost-wakeup
// discipline st::Channel uses.  When readiness fires, the reactor's
// owning worker pops the waiter and st::resume()s it (readyq tail, LTC
// policy); resume's existing kPollParked handling pokes the poll word so
// parked peers wake for the new work.
//
// Ownership model (docs/ASYNC_IO.md):
//   * One Reactor per worker, created lazily on the worker's first
//     would-block operation and installed as the worker's IoPoller.
//   * fd interest is *sticky* to the reactor that armed it.  When a
//     stolen thread retries an op on another worker and the fd has no
//     other waiter, interest migrates (EPOLL_CTL_DEL old / ADD new);
//     if the opposite direction still waits in the old reactor, the new
//     waiter arms there instead so nobody is stranded.
//   * Only the owner worker calls poll(); every other thread interacts
//     through arm()/forget()/wake(), which are cross-thread safe
//     (epoll_ctl is thread-safe by contract; registry under a spinlock).
//
// Lock order: FdState::lock -> Reactor::reg_lock_.  dispatch_fd looks up
// the registry first but *copies the shared_ptr and releases* reg_lock_
// before taking the fd lock, so the orders never nest in reverse.
#pragma once

#if !defined(__linux__)
#error "src/io is Linux-only (epoll/timerfd/eventfd)"
#endif

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include <sys/epoll.h>

#include "runtime/runtime.hpp"
#include "util/spinlock.hpp"

namespace st::io {

class Reactor;

/// Shared state of one registered fd.  Heap-allocated, handle-owned
/// (IoFd) and registry-referenced via shared_ptr so a stale epoll event
/// arriving after close never touches freed memory -- it just misses the
/// registry lookup.
struct FdState {
  /// One suspended operation (stack-allocated in the blocked thread).
  struct Waiter {
    Continuation cont;
    std::uint64_t t_arm = 0;     ///< trace_clock at arm (metrics on)
    std::uint32_t events = 0;    ///< epoll events delivered at wakeup
    bool cancelled = false;      ///< close() won the race: op must not retry
  };

  explicit FdState(int fd) : fd_(fd) {}
  ~FdState() { do_close(); }
  FdState(const FdState&) = delete;
  FdState& operator=(const FdState&) = delete;

  int fd() const noexcept { return fd_.load(std::memory_order_relaxed); }

  /// Every syscall-bearing operation brackets itself with
  /// op_enter/op_exit; close() defers the actual ::close until the last
  /// op leaves, so a woken-then-cancelled op can never race a reused fd
  /// number.  seq_cst on the two flags closes the store-buffer window
  /// (op: ops++ then read closing; closer: closing=true then read ops).
  bool op_enter() noexcept {
    if (closing.load(std::memory_order_seq_cst)) return false;
    ops.fetch_add(1, std::memory_order_seq_cst);
    if (closing.load(std::memory_order_seq_cst)) {
      op_exit();
      return false;
    }
    return true;
  }
  void op_exit() noexcept {
    if (ops.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        closing.load(std::memory_order_seq_cst)) {
      do_close();
    }
  }
  void do_close() noexcept;

  std::atomic<bool> closing{false};
  std::atomic<int> ops{0};

  stu::Spinlock lock;        ///< guards everything below
  Reactor* armed = nullptr;  ///< reactor whose epoll set holds this fd
  bool in_interest = false;  ///< fd is ADDed there (possibly oneshot-disarmed)
  Waiter* reader = nullptr;
  Waiter* writer = nullptr;

 private:
  std::atomic<int> fd_;
};

/// The per-worker reactor (see file header).  Implements st::IoPoller so
/// the runtime's idle sleep can block in epoll_wait without a link-time
/// dependency on this library.
class Reactor final : public IoPoller {
 public:
  /// The calling worker's reactor, created and installed on first use.
  /// Must be called on a worker.
  static Reactor& current();

  explicit Reactor(Worker& w);
  ~Reactor() override;

  // -- IoPoller (runtime-facing) ---------------------------------------
  bool has_pending() const noexcept override {
    return fd_waiters_.load(std::memory_order_acquire) > 0 || !timers_.empty();
  }
  int poll(long timeout_us) override;
  void wake() noexcept override;

  // -- fd interest (called with fs->lock held) -------------------------
  /// ADD or MOD `events | EPOLLONESHOT` for fs in this reactor's epoll
  /// set and registry.  Returns false (errno set) on epoll_ctl failure.
  bool arm(const std::shared_ptr<FdState>& fs, std::uint32_t events) noexcept;
  /// Remove fs from this reactor's epoll set and registry; clears
  /// fs->armed/in_interest.  Cross-thread safe.
  void forget(FdState& fs) noexcept;

  /// Waiter accounting feeding has_pending (any thread).
  void add_waiter() noexcept { fd_waiters_.fetch_add(1, std::memory_order_acq_rel); }
  void sub_waiter() noexcept { fd_waiters_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Owner-only: park the calling thread's waiter on the timer heap and
  /// (re)program the timerfd for the earliest deadline.
  void add_timer(std::uint64_t deadline_ns, FdState::Waiter* w);

  /// Kick the owner out of whichever sleep it chose: eventfd for
  /// epoll_wait, the runtime work-epoch futex for a park.  Used after
  /// arming interest in a *remote* reactor.
  void poke_owner() noexcept;

  Worker& worker() noexcept { return w_; }

 private:
  int dispatch_fd(int fd, std::uint32_t events);
  int expire_timers();
  void deliver(FdState::Waiter* w, std::uint32_t events);
  void program_timerfd(std::uint64_t deadline_ns) noexcept;

  Worker& w_;
  int epfd_ = -1;
  int evfd_ = -1;  ///< wake() target, level-triggered in epfd_
  int tfd_ = -1;   ///< timer heap's backing timerfd, level-triggered
  /// One epoll_wait's event buffer.  128 was picked by measurement
  /// (EXPERIMENTS.md, "Idle path").
  std::array<epoll_event, 128> evbuf_;

  stu::Spinlock reg_lock_;
  std::unordered_map<int, std::shared_ptr<FdState>> reg_;
  std::atomic<std::uint32_t> fd_waiters_{0};

  struct Timer {
    std::uint64_t deadline_ns;
    FdState::Waiter* w;
    bool operator>(const Timer& o) const noexcept { return deadline_ns > o.deadline_ns; }
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::uint64_t armed_deadline_ns_ = 0;  ///< 0 = timerfd disarmed
};

/// CLOCK_MONOTONIC nanoseconds (the timerfd clock).
std::uint64_t now_ns() noexcept;

/// Block the calling fine-grain thread until fs is ready in the given
/// direction (or cancelled).  Publishes a waiter under fs->lock, arms
/// oneshot interest and suspends; the lock is released by the suspend
/// after-callback once the continuation is complete.  Returns false with
/// errno = ECANCELED when close() cancelled the wait, or with epoll_ctl's
/// errno when interest could not be armed.
bool wait_on_fd(const std::shared_ptr<FdState>& fs, bool dir_write);

/// Cancel both directions' waiters (resuming them with cancelled set),
/// withdraw epoll interest and schedule the underlying ::close (deferred
/// to the last in-flight op).  Idempotent.  Must run on a worker when
/// waiters may exist (it resumes them).
void close_fd_state(const std::shared_ptr<FdState>& fs);

}  // namespace st::io
