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
#pragma once

#include <atomic>
#include <cassert>

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

  long outstanding() const {
    const long n = count_.load(std::memory_order_acquire);
    hb::acquire(this, stu::kSchedHbJoin);
    return n >= kWaiterBias ? n - kWaiterBias : n;
  }

  /// Declares the completion of one task; wakes the waiter when the
  /// count reaches zero.
  void finish() {
    hb::acq_rel(this, stu::kSchedHbJoin);
    const long prev = count_.fetch_sub(1, std::memory_order_acq_rel);
    assert(prev % kWaiterBias != 0 && "finish() without matching add()");
    if (prev != kWaiterBias + 1) return;
    // Last finisher with the waiter armed.  The waiter stays suspended
    // until we wake it, so the counter is still alive here.
    hb::acquire(this, stu::kSchedHbJoin);
    hb::access(&waiting_, stu::kSchedAccessRead, hb::kSiteJoinWaiter);
    Continuation* c = waiting_;
    if (policy_ == WakePolicy::kDeferred) {
      resume(c);
    } else {
      restart(c);
    }
  }

  /// Waits for the count to reach zero.  At most one waiter.
  void join() {
    if (count_.load(std::memory_order_acquire) == 0) {
      hb::acquire(this, stu::kSchedHbJoin);
      return;
    }
    join_slow();
  }

 private:
  /// Larger than any count; marks "waiter armed".
  static constexpr long kWaiterBias = 1L << 40;

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

}  // namespace st
