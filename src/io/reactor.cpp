#include "io/reactor.hpp"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include "runtime/annotate.hpp"
#include "util/sched_log.hpp"
#include "util/metrics.hpp"

namespace st::io {

namespace {

// __errno_location() is attribute-const, so within one frame the
// compiler may reuse a TLS address resolved before a suspension point --
// after which this thread may run on a different OS thread.  wait_on_fd
// suspends, so its errno writes go through this per-call re-resolver
// (same discipline as net.cpp).
__attribute__((noinline)) void set_errno(int e) noexcept { errno = e; }

__attribute__((noinline)) int saved_errno() noexcept { return errno; }

}  // namespace

std::uint64_t now_ns() noexcept {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void FdState::do_close() noexcept {
  const int f = fd_.exchange(-1, std::memory_order_acq_rel);
  if (f >= 0) ::close(f);
}

// ---------------------------------------------------------------------
// Reactor lifecycle
// ---------------------------------------------------------------------

Reactor& Reactor::current() {
  Worker* w = tl_worker;
  assert(w != nullptr && "st::io operations must run on a worker");
  IoPoller* p = w->io_poller();
  if (p == nullptr) {
    p = new Reactor(*w);
    w->install_io_poller(p);
  }
  return *static_cast<Reactor*>(p);
}

Reactor::Reactor(Worker& w) : w_(w) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  evfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (epfd_ < 0 || evfd_ < 0 || tfd_ < 0) {
    std::perror("st::io: reactor fd creation failed");
    std::abort();  // per-worker setup; nothing sensible to degrade to
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: a pending wake stays readable
  ev.data.fd = evfd_;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, evfd_, &ev);
  ev.data.fd = tfd_;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, tfd_, &ev);
}

Reactor::~Reactor() {
  // Workers are joined (or this worker is being destroyed) by the time a
  // reactor dies; surviving FdStates (streams the application still
  // holds) must stop pointing at us so a later close() does not touch a
  // dead epoll.  Copy the handles out first: the dtor takes reg_lock_
  // then fs->lock, the reverse of the runtime-time order, which is safe
  // only because nothing else runs -- keep it that way by not holding
  // reg_lock_ across the fd locks anyway.
  std::vector<std::shared_ptr<FdState>> survivors;
  {
    stu::SpinGuard g(reg_lock_);
    survivors.reserve(reg_.size());
    for (auto& [fd, fs] : reg_) survivors.push_back(fs);
    reg_.clear();
  }
  for (auto& fs : survivors) {
    stu::SpinGuard g(fs->lock);
    if (fs->armed == this) {
      fs->armed = nullptr;
      fs->in_interest = false;
    }
  }
  ::close(tfd_);
  ::close(evfd_);
  ::close(epfd_);
}

// ---------------------------------------------------------------------
// IoPoller
// ---------------------------------------------------------------------

void Reactor::wake() noexcept {
  const std::uint64_t one = 1;
  // EAGAIN (counter saturated) still leaves the eventfd readable: the
  // wake is already pending, which is all we need.
  [[maybe_unused]] ssize_t n = ::write(evfd_, &one, sizeof one);
}

void Reactor::poke_owner() noexcept {
  wake();  // covers an owner blocked in epoll_wait (sticky)
  // A futex-parked owner never sees the eventfd; the work epoch is the
  // only lever that reaches it.  Rare path (remote-reactor arm), so the
  // broadcast is acceptable.
  if (w_.parked()) w_.runtime().notify_work();
}

int Reactor::poll(long timeout_us) {
  int ms = 0;
  if (timeout_us > 0) ms = static_cast<int>((timeout_us + 999) / 1000);
  const int n = ::epoll_wait(epfd_, evbuf_.data(), static_cast<int>(evbuf_.size()), ms);
  if (n <= 0) return 0;  // timeout, EINTR: the caller's loop retries
  ++w_.stats().io_wakeups;
  if (stu::metrics_enabled()) {
    w_.metrics().io_ready_batch.record(static_cast<std::uint64_t>(n));
  }
  w_.trace(stu::kTraceIoWake, static_cast<std::uint64_t>(n),
           static_cast<std::uint64_t>(timeout_us > 0 ? timeout_us : 0));
  int resumed = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = evbuf_[static_cast<std::size_t>(i)].data.fd;
    const std::uint32_t events = evbuf_[static_cast<std::size_t>(i)].events;
    if (fd == evfd_) {
      std::uint64_t drain;
      [[maybe_unused]] ssize_t r = ::read(evfd_, &drain, sizeof drain);
    } else if (fd == tfd_) {
      std::uint64_t expirations;
      [[maybe_unused]] ssize_t r = ::read(tfd_, &expirations, sizeof expirations);
      resumed += expire_timers();
    } else {
      resumed += dispatch_fd(fd, events);
    }
  }
  return resumed;
}

// ---------------------------------------------------------------------
// fd interest
// ---------------------------------------------------------------------

bool Reactor::arm(const std::shared_ptr<FdState>& fs, std::uint32_t events) noexcept {
  epoll_event ev{};
  ev.events = events | EPOLLONESHOT;
  ev.data.fd = fs->fd();  // int, not a pointer: dispatch re-validates via
                          // the registry, so stale events are harmless
  if (fs->armed == this && fs->in_interest) {
    return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fs->fd(), &ev) == 0;
  }
  {
    stu::SpinGuard g(reg_lock_);
    reg_[fs->fd()] = fs;
  }
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fs->fd(), &ev) != 0) {
    if (saved_errno() != EEXIST ||
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fs->fd(), &ev) != 0) {
      stu::SpinGuard g(reg_lock_);
      reg_.erase(fs->fd());
      return false;
    }
  }
  fs->armed = this;
  fs->in_interest = true;
  return true;
}

void Reactor::forget(FdState& fs) noexcept {
  if (fs.in_interest) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fs.fd(), nullptr);
  }
  {
    stu::SpinGuard g(reg_lock_);
    reg_.erase(fs.fd());
  }
  fs.armed = nullptr;
  fs.in_interest = false;
}

int Reactor::dispatch_fd(int fd, std::uint32_t events) {
  std::shared_ptr<FdState> fs;
  {
    stu::SpinGuard g(reg_lock_);
    auto it = reg_.find(fd);
    if (it == reg_.end()) return 0;  // closed/migrated since the event queued
    fs = it->second;
  }
  FdState::Waiter* rd = nullptr;
  FdState::Waiter* wr = nullptr;
  fs->lock.lock();
  hb::acquire(&fs->lock, stu::kSchedHbLock);
  const bool err = (events & (EPOLLERR | EPOLLHUP)) != 0;
  if (fs->reader != nullptr && (err || (events & (EPOLLIN | EPOLLRDHUP)) != 0)) {
    hb::access(&fs->reader, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
    rd = fs->reader;
    fs->reader = nullptr;
  }
  if (fs->writer != nullptr && (err || (events & EPOLLOUT) != 0)) {
    hb::access(&fs->writer, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
    wr = fs->writer;
    fs->writer = nullptr;
  }
  // The oneshot consumed the whole interest set: re-arm for whichever
  // direction is still waiting (e.g. EPOLLIN fired while a writer waits).
  const std::uint32_t remain =
      (fs->reader != nullptr ? (EPOLLIN | EPOLLRDHUP) : 0u) |
      (fs->writer != nullptr ? EPOLLOUT : 0u);
  if (remain != 0 && fs->armed == this) arm(fs, remain);
  hb::release(&fs->lock, stu::kSchedHbLock);
  fs->lock.unlock();
  int n = 0;
  if (rd != nullptr) {
    deliver(rd, events);
    ++n;
  }
  if (wr != nullptr) {
    deliver(wr, events);
    ++n;
  }
  return n;
}

void Reactor::deliver(FdState::Waiter* w, std::uint32_t events) {
  hb::access(&w->events, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
  w->events = events;
  sub_waiter();
  ++w_.stats().io_events;
  if (stu::metrics_enabled() && w->t_arm != 0) {
    const std::uint64_t now = stu::trace_clock();
    if (now > w->t_arm) w_.metrics().io_wait.record(now - w->t_arm);
  }
  w_.trace(stu::kTraceIoReady, reinterpret_cast<std::uintptr_t>(w), events);
  // Io-readiness delivery order is a scheduling decision (which waiter
  // inside an epoll batch resumes first), recorded for the schedule log.
  if (stu::sched_recording()) [[unlikely]] {
    stu::sched_record(stu::kSchedIoReady, static_cast<std::uint16_t>(w_.id()),
                      stu::kTraceSrcRuntime, reinterpret_cast<std::uintptr_t>(w),
                      events, &w_.trace_ring());
  }
  resume(&w->cont);
}

// ---------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------

void Reactor::program_timerfd(std::uint64_t deadline_ns) noexcept {
  itimerspec its{};
  if (deadline_ns == 0) deadline_ns = 1;  // 0 would disarm; 1ns fires now
  its.it_value.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
  its.it_value.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
  ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
  armed_deadline_ns_ = deadline_ns;
}

void Reactor::add_timer(std::uint64_t deadline_ns, FdState::Waiter* w) {
  assert(tl_worker == &w_ && "timers are owner-only");
  timers_.push(Timer{deadline_ns, w});
  if (armed_deadline_ns_ == 0 || deadline_ns < armed_deadline_ns_) {
    program_timerfd(deadline_ns);
  }
}

int Reactor::expire_timers() {
  const std::uint64_t now = now_ns();
  int n = 0;
  while (!timers_.empty() && timers_.top().deadline_ns <= now) {
    FdState::Waiter* w = timers_.top().w;
    timers_.pop();
    ++w_.stats().io_timers;
    w_.trace(stu::kTraceIoTimer, reinterpret_cast<std::uintptr_t>(w), 0);
    resume(&w->cont);
    ++n;
  }
  if (timers_.empty()) {
    if (armed_deadline_ns_ != 0) {
      itimerspec its{};  // all-zero disarms
      ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
      armed_deadline_ns_ = 0;
    }
  } else {
    program_timerfd(timers_.top().deadline_ns);
  }
  return n;
}

// ---------------------------------------------------------------------
// The suspend side of the handshake
// ---------------------------------------------------------------------

bool wait_on_fd(const std::shared_ptr<FdState>& fs, bool dir_write) {
  Worker* w = tl_worker;
  assert(w != nullptr && "st::io operations must run on a worker");
  Reactor& mine = Reactor::current();
  FdState::Waiter waiter;
  fs->lock.lock();
  hb::acquire(&fs->lock, stu::kSchedHbLock);
  if (fs->closing.load(std::memory_order_seq_cst)) {
    hb::release(&fs->lock, stu::kSchedHbLock);
    fs->lock.unlock();
    set_errno(ECANCELED);
    return false;
  }
  Reactor* target = &mine;
  if (fs->armed != nullptr && fs->armed != &mine) {
    if (fs->reader == nullptr && fs->writer == nullptr) {
      // Sticky ownership follows the latest would-block op: the thread
      // migrated (stolen continuation), so its fd comes along.
      const unsigned from = fs->armed->worker().id();
      fs->armed->forget(*fs);
      ++w->stats().io_migrations;
      w->trace(stu::kTraceIoMigrate, static_cast<std::uint64_t>(fs->fd()), from);
    } else {
      // The other direction is parked in the old reactor; arming here
      // would strand it (one epoll set per fd direction pair).  Join it.
      target = fs->armed;
    }
  }
  FdState::Waiter*& slot = dir_write ? fs->writer : fs->reader;
  assert(slot == nullptr && "one waiter per direction");
  hb::access(&slot, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
  slot = &waiter;
  waiter.t_arm = stu::metrics_enabled() ? stu::trace_clock() : 0;
  const std::uint32_t interest =
      (fs->reader != nullptr ? (EPOLLIN | EPOLLRDHUP) : 0u) |
      (fs->writer != nullptr ? EPOLLOUT : 0u);
  if (!target->arm(fs, interest)) {
    hb::access(&slot, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
    slot = nullptr;
    hb::release(&fs->lock, stu::kSchedHbLock);
    fs->lock.unlock();
    return false;  // epoll_ctl errno (EPERM for plain files, EBADF, ...)
  }
  target->add_waiter();
  w->trace(stu::kTraceIoWait, reinterpret_cast<std::uintptr_t>(&waiter),
           static_cast<std::uint64_t>(fs->fd()));
  if (target != &mine) target->poke_owner();
  // The lock-release edge is recorded before the suspend whose switch
  // callback performs the real unlock: only the ordered switch separates
  // the two.
  hb::release(&fs->lock, stu::kSchedHbLock);
  suspend(&waiter.cont,
          [](void* p) { static_cast<stu::Spinlock*>(p)->unlock(); }, &fs->lock);
  // Woken: join the delivering reactor's clock (kSchedIoReady releases
  // under this waiter's token; a cancel wake has no Io release and the
  // acquire degrades to the Ctx edge alone).
  hb::acquire(&waiter, stu::kSchedHbIo);
  hb::access(&waiter.cancelled, stu::kSchedAccessRead, hb::kSiteFdWaiter);
  if (waiter.cancelled) {
    set_errno(ECANCELED);
    return false;
  }
  return true;
}

void close_fd_state(const std::shared_ptr<FdState>& fs) {
  if (fs == nullptr) return;
  FdState::Waiter* rd = nullptr;
  FdState::Waiter* wr = nullptr;
  Reactor* armed = nullptr;
  fs->lock.lock();
  hb::acquire(&fs->lock, stu::kSchedHbLock);
  if (fs->closing.exchange(true, std::memory_order_seq_cst)) {
    hb::release(&fs->lock, stu::kSchedHbLock);
    fs->lock.unlock();
    return;  // concurrent/repeated close
  }
  hb::access(&fs->reader, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
  rd = fs->reader;
  fs->reader = nullptr;
  hb::access(&fs->writer, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
  wr = fs->writer;
  fs->writer = nullptr;
  armed = fs->armed;
  if (armed != nullptr) armed->forget(*fs);
  hb::release(&fs->lock, stu::kSchedHbLock);
  fs->lock.unlock();
  for (FdState::Waiter* w : {rd, wr}) {
    if (w == nullptr) continue;
    hb::access(&w->cancelled, stu::kSchedAccessWrite, hb::kSiteFdWaiter);
    w->cancelled = true;
    armed->sub_waiter();
    Worker* self = tl_worker;
    assert(self != nullptr && "close with suspended waiters must run on a worker");
    ++self->stats().io_cancels;
    self->trace(stu::kTraceIoCancel, reinterpret_cast<std::uintptr_t>(w),
                static_cast<std::uint64_t>(fs->fd()));
    resume(&w->cont);
  }
  // No in-flight op left: close now; otherwise the last op_exit does it.
  if (fs->ops.load(std::memory_order_seq_cst) == 0) fs->do_close();
}

}  // namespace st::io
