// Native-runtime annotation seams for the happens-before analyzer
// (src/analysis/hb.*, docs/ANALYSIS.md).
//
// The STVM interpreter annotates from inside exec_instr; the native
// runtime annotates at a handful of hand-placed seams instead: the
// context-handoff edges in suspend/resume/restart, the join-counter
// and future-cell RMWs, the poll-word transitions, the cross-worker
// stacklet retire counter, and the reactor's fd-waiter slots.  Everything here
// compiles to a relaxed flag test when annotation is off
// (ST_SCHED_ANNOTATE / sched_set_annotate), so the seams may sit on
// warm paths.
//
// Edge-placement rules the analyzer depends on:
//   * a release must be recorded while the releaser still holds
//     whatever orders it before the matching acquire (the lock, or the
//     not-yet-published continuation).  Emitting a lock release just
//     BEFORE the unlock -- or before a suspend whose unlock runs in the
//     switch callback -- is sound: only already-ordered work separates
//     the record from the real release.
//   * tokens recycle (stack continuations, pool slots), and the
//     analyzer's release REPLACES the stored clock, so a stale token is
//     never carried past its reuse.
//   * the decision clock is a global mutex-protected Lamport clock, so
//     seq order is a real interleaving order across OS threads.
#pragma once

#include <cstdint>

#include "runtime/worker.hpp"
#include "util/sched_log.hpp"

namespace st::hb {

/// Site tags carried in the aux payload of native kSchedAccess records
/// (the STVM uses its retired-instruction count there instead; src
/// disambiguates).  Append-only.
enum Site : std::uint64_t {
  kSiteJoinCount = 1,        ///< retired: join counts carry kSchedHbJoin edges
  kSiteJoinWaiter = 2,       ///< JoinCounter::waiting_
  kSitePollWord = 3,         ///< Worker poll word (atomic protocol)
  kSiteStackletCounter = 4,  ///< StackRegion cross-worker retire count
  kSiteFdWaiter = 5,         ///< reactor FdState reader/writer slot
};

/// The recording lane: the current worker's id, or an off-worker lane
/// (reactor thread, monitor, main before runtime start).
inline std::uint16_t self() noexcept {
  Worker* w = tl_worker;
  return w != nullptr ? static_cast<std::uint16_t>(w->id()) : std::uint16_t{0xFFFF};
}

inline void access(const void* obj, stu::SchedAccessKind kind, Site site) noexcept {
  if (stu::sched_annotating()) [[unlikely]] {
    stu::sched_access(self(), stu::kTraceSrcRuntime,
                      reinterpret_cast<std::uintptr_t>(obj), kind,
                      static_cast<std::uint64_t>(site));
  }
}

inline void release(const void* token, stu::SchedHbClass cls) noexcept {
  if (stu::sched_annotating()) [[unlikely]] {
    stu::sched_hb_release(self(), stu::kTraceSrcRuntime,
                          reinterpret_cast<std::uintptr_t>(token), cls);
  }
}

inline void acquire(const void* token, stu::SchedHbClass cls) noexcept {
  if (stu::sched_annotating()) [[unlikely]] {
    stu::sched_hb_acquire(self(), stu::kTraceSrcRuntime,
                          reinterpret_cast<std::uintptr_t>(token), cls);
  }
}

/// An atomic read-modify-write on `token`: joins every earlier record's
/// history and passes it on, like a lock handoff (one clock hold, see
/// stu::sched_hb_acq_rel).  Record it *before* the RMW, so that it
/// precedes in decision order whatever observes the RMW's result; the
/// observer then records a plain acquire *after* its own RMW or load.
inline void acq_rel(const void* token, stu::SchedHbClass cls) noexcept {
  if (stu::sched_annotating()) [[unlikely]] {
    stu::sched_hb_acq_rel(self(), stu::kTraceSrcRuntime,
                          reinterpret_cast<std::uintptr_t>(token), cls);
  }
}

}  // namespace st::hb
