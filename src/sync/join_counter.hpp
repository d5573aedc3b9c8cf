// Join counter: the paper's Figure 8 synchronization primitive, lock-free,
// with both wake-up policies:
//
//   kDeferred  -- the awakened thread enters the tail of the resuming
//                 worker's readyq (the LTC policy of Section 4.2, the
//                 paper's recommended default: "it is often better to
//                 postpone scheduling the waiting context").
//   kImmediate -- the finisher restarts the waiter at once and becomes
//                 its parent (Figure 8 line 14 as written).
//
// As in the paper, exactly one thread may wait on a counter.
//
// Protocol (DESIGN.md §5.16).  One atomic word holds the outstanding
// count, plus kWaiterBias once a waiter is armed.  finish() is one
// fetch_sub; join() is one acquire load when the children are done.
// Otherwise join() suspends and the after-callback -- running on the
// context suspended to, once the waiter's sp is written -- adds the bias.
// Exactly one side wakes the waiter: the finisher whose fetch_sub leaves
// the bias alone, or the callback itself when its fetch_add found the
// count already at zero (it uses resume(): a callback runs mid-switch
// and cannot become anyone's parent).  Neither side touches the counter
// after its RMW unless it is the one that wakes, so a joiner may destroy
// the counter as soon as join() returns.
//
// Counted forks.  st::fork(jc, f) counts only the children that detach
// from their parent: a child that finishes under it -- the common case
// -- touches the counter not at all.  A detached child's completion hook
// does finish()'s fetch_sub and, if it is the last, wakes the joiner
// deferred (it runs inside the child's completion, which cannot become
// the joiner's parent).  The parent adds the child once it resumes
// detached, so the hook's subtraction may come first and leave the count
// at -1 for a while; that is legal because the parent's add precedes its
// join() -- which is why only the joining thread may fork counted.
#pragma once

#include <atomic>
#include <cassert>
#include <utility>

#include "runtime/annotate.hpp"
#include "runtime/runtime.hpp"

namespace st {

enum class WakePolicy { kDeferred, kImmediate };

class JoinCounter {
 public:
  explicit JoinCounter(long n = 0, WakePolicy policy = WakePolicy::kDeferred)
      : count_(n), policy_(policy) {}
  JoinCounter(const JoinCounter&) = delete;
  JoinCounter& operator=(const JoinCounter&) = delete;

  /// Registers k more tasks to wait for.  Must not run concurrently with
  /// the last finish() unless a join() is still outstanding.
  void add(long k = 1) {
    hb::acq_rel(this, stu::kSchedHbJoin);
    count_.fetch_add(k, std::memory_order_acq_rel);
  }

  /// Outstanding tasks.  A counted fork's detached child may subtract
  /// before its parent adds, so this can read -1 (see above).
  long outstanding() const {
    const long n = count_.load(std::memory_order_acquire);
    hb::acquire(this, stu::kSchedHbJoin);
    return n >= kWaiterBias ? n - kWaiterBias : n;
  }

  /// Declares the completion of one task; wakes the waiter when the
  /// count reaches zero.
  void finish() {
    if (!count_down()) return;
    if (policy_ == WakePolicy::kDeferred) {
      resume(waiting_);
    } else {
      restart(waiting_);
    }
  }

  /// Waits for the count to reach zero.  At most one waiter; a counter
  /// with counted forks is joined by the thread that forked them.
  void join() {
    if (count_.load(std::memory_order_acquire) == 0) {
      hb::acquire(this, stu::kSchedHbJoin);
      return;
    }
    join_slow();
  }

 private:
  template <typename F>
  friend void fork(JoinCounter& jc, F&& f);

  /// Larger than any count; marks "waiter armed".
  static constexpr long kWaiterBias = 1L << 40;

  /// finish()'s RMW.  True for the last finisher with the waiter armed,
  /// which must wake it: the waiter stays suspended until then, so the
  /// counter is still alive.
  bool count_down() {
    hb::acq_rel(this, stu::kSchedHbJoin);
    const long prev = count_.fetch_sub(1, std::memory_order_acq_rel);
    // Unarmed, 0 is a legal prior count: a counted fork's detached child
    // may have subtracted before its parent added.
    assert(prev != kWaiterBias && "finish() without matching add()");
    if (prev != kWaiterBias + 1) return false;
    hb::acquire(this, stu::kSchedHbJoin);
    hb::access(&waiting_, stu::kSchedAccessRead, hb::kSiteJoinWaiter);
    return true;
  }

  /// A counted fork's completion hook, run only by a detached child:
  /// finish() with a deferred wake whatever the policy.
  static void finish_detached(void* p) {
    auto* self = static_cast<JoinCounter*>(p);
    if (self->count_down()) resume(self->waiting_);
  }

  [[gnu::noinline]] void join_slow() {
    Continuation c;
    hb::access(&waiting_, stu::kSchedAccessWrite, hb::kSiteJoinWaiter);
    waiting_ = &c;
    suspend(&c, &JoinCounter::arm, this);
    // Woken: every finish() is done and nobody touches the counter any
    // more.  Drop the bias so the counter can be reused.
    hb::acquire(this, stu::kSchedHbJoin);
    count_.store(0, std::memory_order_relaxed);
  }

  /// suspend() after-callback: c's sp is written, so the waiter may now
  /// be published.
  static void arm(void* p) {
    auto* self = static_cast<JoinCounter*>(p);
    hb::acq_rel(self, stu::kSchedHbJoin);
    if (self->count_.fetch_add(kWaiterBias, std::memory_order_acq_rel) != 0) return;
    // Every task finished between join()'s load and here: wake ourselves.
    hb::access(&self->waiting_, stu::kSchedAccessRead, hb::kSiteJoinWaiter);
    resume(self->waiting_);
  }

  std::atomic<long> count_;
  Continuation* waiting_ = nullptr;
  WakePolicy policy_;
};

/// Counted fork: runs `f` as a forked child that jc.join() waits for,
/// without an add()/finish() pair.  The child joined under its caller
/// costs the counter nothing; a detached child is counted (see above).
/// Precondition: the caller is the thread that will join() jc.
template <typename F>
void fork(JoinCounter& jc, F&& f) {
  if (!detail::fork_run(std::forward<F>(f), &JoinCounter::finish_detached, &jc)) [[unlikely]] {
    jc.add();
  }
}

}  // namespace st
