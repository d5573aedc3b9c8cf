// Cooperative abortion of speculative thread groups.
//
// The paper ports every Cilk benchmark *except* "choleskey and queens,
// that use Cilk's thread abortion function, which we have not implemented
// yet" (Section 8.2).  This is that missing feature, built -- like
// everything in sync/ -- purely on the public primitives: an AbortGroup
// is a flag that speculative searches poll; cancelling wakes nothing by
// force (fine-grain threads cannot be preempted mid-frame any more than
// Cilk's could), it makes every subsequent poll site unwind voluntarily.
//
// Pattern (first-solution search):
//
//   st::AbortGroup g;
//   st::JoinCounter jc;
//   st::fork(jc, [&] { if (search(a) && g.request_abort()) publish(a); });
//   st::fork(jc, [&] { if (search(b) && g.request_abort()) publish(b); });
//   jc.join();              // losers noticed g.aborted() and unwound early
#pragma once

#include <atomic>

namespace st {

class AbortGroup {
 public:
  AbortGroup() = default;
  AbortGroup(const AbortGroup&) = delete;
  AbortGroup& operator=(const AbortGroup&) = delete;

  /// True once some member requested abortion.  Speculative code checks
  /// this at its natural poll points and unwinds.
  bool aborted() const noexcept { return flag_.load(std::memory_order_acquire); }

  /// Requests abortion.  Returns true for exactly one caller -- the
  /// winner of a first-solution race (everyone else sees false and
  /// treats its own result as stale).
  bool request_abort() noexcept {
    return !flag_.exchange(true, std::memory_order_acq_rel);
  }

  /// Re-arms the group for another round (caller must ensure quiescence).
  void reset() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace st
