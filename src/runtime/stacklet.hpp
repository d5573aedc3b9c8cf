// Per-worker physical stack regions and stacklet carving.
//
// The paper gives each worker one contiguous *physical stack* from which
// every frame is allocated at the top (SP), and reclaims space with the
// exported/retired-set discipline of Section 5: a frame finishing out of
// LIFO order is merely *marked* finished (its return-address slot is
// zeroed); the owner's shrink operation later pops marked frames off the
// physical top.  Space sandwiched between live frames is deliberately not
// reused ("the space utilization of a stack may be arbitrarily low",
// Section 5.1).
//
// The native runtime reproduces this at stacklet granularity: each forked
// computation runs on a stacklet carved from its worker's region.
//   allocate  = the model's `call`  (always at the physical top),
//   release of the top slot            = `return`, free branch,
//   release of a lower slot            = `return`, retire branch
//                                        (an atomic mark -- the zeroed
//                                        return-address slot's analog),
//   reclaim_top (pop marked top slots) = repeated `shrink`.
// Because every live slot's maximum is by construction the highest live
// slot, the exported-set max-heap of the model degenerates here to the
// region's bump pointer; the full heap machinery runs in src/stvm where
// frames are individually managed.
//
// Two deliberate departures from the paper's "never reuse sandwiched
// space" rule, both softening the utilization cliff:
//   - Scavenge: when the bump pointer is pinned at capacity by a live top
//     frame, allocate() reuses a *retired* slot trapped below it instead
//     of falling off to the heap.  (Slot reuse is sound here precisely
//     because stacklets, unlike the paper's frames, are fixed-size.)
//   - Trim: when shrink retreats the bump pointer far below the highest
//     slot ever touched (>= trim_slots), the drained span's pages are
//     returned to the OS with madvise(MADV_DONTNEED).
//
// When the region is exhausted (deep outstanding suspension) and no
// retired slot can be scavenged, allocation falls back to heap stacklets
// -- the "multiple physical stacks per worker" safer scheme the paper
// sketches as an alternative.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/context.hpp"

namespace st {

class StackRegion;

/// One computation's stack.  The header sits at the slot's low end; the
/// machine stack grows down from the slot's high end toward it.  A small
/// closure area after the header receives the forked callable (the child
/// must own its copy: a stolen parent may destroy the fork-site temporary
/// before the child finishes); the child's entry (fork_entry<Fn>) knows
/// the callable's type, so the header stores no pointer to it.
struct Stacklet {
  StackRegion* region;  ///< nullptr for heap-fallback stacklets
  std::uint32_t slot;   ///< region slot index (undefined for heap stacklets)
  std::size_t bytes;    ///< total slot size including this header
  /// The forking caller's continuation, pushed on the fork deque while
  /// this child runs.  It lives here rather than in a frame of the fork
  /// path so the switch can sit at the fork site itself: the stacklet
  /// outlives the record's time on the deque (complete_child and suspend
  /// pop it before the stacklet is released; a steal copies it out).
  Continuation parent;
  /// The message a finished computation hands to the context it exits to
  /// (release this stacklet).  It lives here, off the machine stack:
  /// between the entry function's `ret` and the exit tail's stack switch
  /// the stack below %rsp is dead, and a signal delivered there would
  /// overwrite a message kept in the entry function's frame.
  SwitchMsg exit_msg;

  char* closure_area() noexcept { return reinterpret_cast<char*>(this + 1); }
  static constexpr std::size_t kClosureBytes = 256;

  char* stack_base() noexcept { return closure_area() + kClosureBytes; }
  std::size_t stack_bytes() const noexcept {
    return bytes - sizeof(Stacklet) - kClosureBytes;
  }
};
#if !ST_TSAN_FIBERS
static_assert(sizeof(Stacklet) == 56, "the stacklet header grew: check the slot layout");
#endif

/// A worker's physical stack region.  allocate()/reclaim_top() are
/// owner-only; release() may be called by any worker (cross-worker frees
/// happen whenever a migrated computation finishes away from home).
class StackRegion {
 public:
  /// slots * slot_bytes of address space is reserved lazily (mmap,
  /// MAP_NORESERVE); pages are touched only as stacklets are used.
  /// trim_slots: madvise threshold in slots (-1 = ST_TRIM_SLOTS from the
  /// environment, default 32; 0 = never trim).
  StackRegion(std::size_t slot_bytes, std::size_t slots, long trim_slots = -1);
  ~StackRegion();
  StackRegion(const StackRegion&) = delete;
  StackRegion& operator=(const StackRegion&) = delete;

  /// Owner-only: carve the next stacklet at the physical top (after
  /// shrinking past any retired top slots).  When the bump pointer is
  /// pinned at capacity, scavenges a retired slot below it; only when
  /// that also fails does it fall back to the heap.  Inline part: the
  /// bump into an already-touched slot whose header (region, slot,
  /// bytes) is still in place -- those fields never change for a region
  /// slot, so only a fresh or trimmed slot has them written.
  Stacklet* allocate() {
    const std::size_t t = top();
    if (t != 0 && t < mapped_top_ &&
        state_[t - 1].load(std::memory_order_acquire) != kRetired) [[likely]] {
      set_top(t + 1);
      state_[t].store(kLive, std::memory_order_relaxed);
      tick(bump_allocs_);
      return header_of(t);
    }
    return allocate_slow();
  }

  /// Any worker: finish a stacklet.  Top slots are not eagerly popped
  /// here (that is the owner's shrink); the slot is marked retired.
  /// Heap-fallback stacklets are freed immediately.
  static void release(Stacklet* s) noexcept;

  /// Owner-only release: the common case of a child finishing on its
  /// home worker (the caller must have checked ownership).  The top slot
  /// is popped directly -- LIFO completion never touches the retired set
  /// or the cross-worker counter; anything else defers to release().
  void release_local(Stacklet* s) noexcept {
    const std::size_t t = top();
    if (s->slot + 1 == t) [[likely]] {
      state_[s->slot].store(kFree, std::memory_order_relaxed);
      set_top(t - 1);
      tick(popped_);
      if (trim_slots_ > 0 && mapped_top_ >= (t - 1) + trim_slots_) trim(t - 1);
      return;
    }
    release(s);
  }

  /// Owner-only: the shrink loop -- pop retired slots off the top, then
  /// madvise the drained span back to the OS once it exceeds the trim
  /// threshold.  Returns the number of slots reclaimed.
  std::size_t reclaim_top() noexcept;

  // -- observability (benchmarks / tests / monitor) ----------------------
  // Counter discipline, chosen for the fork fast path: every owner-side
  // counter (bump allocs, local pops, scavenges, reclaims, trims) has
  // exactly one writer and is advanced with a plain load+store on its
  // atomic (no RMW); only released_ -- bumped by whichever worker frees a
  // stacklet cross-worker -- pays a fetch_add.  live/retired are derived,
  // not stored:
  //   live    = bump_allocs + scavenges - released - popped
  //   retired = released - reclaimed - scavenges
  // Racy readers may see a transiently inconsistent mix (clamped at 0);
  // at quiescence, and on the owner, the derived values are exact.
  enum SlotState : std::uint8_t { kFree = 0, kLive = 1, kRetired = 2 };

  std::size_t top() const noexcept { return top_.load(std::memory_order_relaxed); }
  std::size_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }
  std::size_t heap_fallbacks() const noexcept {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }
  /// O(1): derived from incremental counters, not a scan (the monitor
  /// reads this on every stall/metrics snapshot).
  std::size_t live_slots() const noexcept {
    const auto allocs = bump_allocs_.load(std::memory_order_relaxed) +
                        scavenges_.load(std::memory_order_relaxed);
    const auto freed = released_.load(std::memory_order_relaxed) +
                       popped_.load(std::memory_order_relaxed);
    return allocs > freed ? allocs - freed : 0;
  }
  /// O(1): retired-but-unreclaimed slots (the Section-5 R set).
  std::size_t retired_slots() const noexcept {
    const auto rel = released_.load(std::memory_order_relaxed);
    const auto gone = reclaimed_.load(std::memory_order_relaxed) +
                      scavenges_.load(std::memory_order_relaxed);
    return rel > gone ? rel - gone : 0;
  }
  std::size_t scavenges() const noexcept {
    return scavenges_.load(std::memory_order_relaxed);
  }
  std::size_t trims() const noexcept {
    return trims_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const noexcept { return slots_; }

  /// Slot state below the bump pointer (any thread; introspection dumps
  /// classify kLive slots as Exported and kRetired as Retired frames).
  SlotState slot_state(std::size_t slot) const noexcept {
    return static_cast<SlotState>(state_[slot].load(std::memory_order_relaxed));
  }

 private:
  Stacklet* header_of(std::size_t slot) noexcept {
    return reinterpret_cast<Stacklet*>(base_ + slot * slot_bytes_);
  }
  Stacklet* init_slot(std::size_t slot) noexcept;
  /// allocate() past its inline case: shrink first, then carve (writing
  /// the header of a slot at or above mapped_top_), scavenge or fall
  /// back to the heap.
  Stacklet* allocate_slow();

  void set_top(std::size_t t) noexcept { top_.store(t, std::memory_order_relaxed); }
  /// Owner-only counter bump: plain load + store, no RMW.
  static void tick(std::atomic<std::size_t>& c, std::size_t by = 1) noexcept {
    c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
  }
  /// Owner-only: madvise the drained span (new_top, mapped_top_) back to
  /// the OS and lower mapped_top_.
  void trim(std::size_t new_top) noexcept;

  std::size_t slot_bytes_;
  std::size_t slots_;
  std::size_t trim_slots_;                 // 0 = trimming disabled
  std::size_t mapped_top_ = 0;             // owner-only: highest touched slot + 1
  char* base_ = nullptr;                   // mmap'd arena
  std::atomic<std::size_t> top_{0};        // bump pointer: next slot to carve
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::size_t> heap_fallbacks_{0};
  // Owner-written counters (single writer, plain stores).
  std::atomic<std::size_t> bump_allocs_{0};
  std::atomic<std::size_t> popped_{0};
  std::atomic<std::size_t> reclaimed_{0};
  std::atomic<std::size_t> scavenges_{0};
  std::atomic<std::size_t> trims_{0};
  // The one cross-worker counter (fetch_add in release()).
  std::atomic<std::size_t> released_{0};
  std::vector<std::atomic<std::uint8_t>> state_;
};

}  // namespace st
