#include "runtime/stacklet.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "runtime/annotate.hpp"
#include "util/env.hpp"

namespace st {

StackRegion::StackRegion(std::size_t slot_bytes, std::size_t slots, long trim_slots)
    : slot_bytes_(slot_bytes), slots_(slots), state_(slots) {
  if (slot_bytes_ < sizeof(Stacklet) + Stacklet::kClosureBytes + 4096) {
    throw std::invalid_argument("stacklet slot too small");
  }
  if (trim_slots < 0) trim_slots = stu::env_long("ST_TRIM_SLOTS", 32);
  trim_slots_ = static_cast<std::size_t>(trim_slots);
  void* mem = ::mmap(nullptr, slot_bytes_ * slots_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<char*>(mem);
  for (auto& s : state_) s.store(kFree, std::memory_order_relaxed);
}

StackRegion::~StackRegion() {
  if (base_ != nullptr) ::munmap(base_, slot_bytes_ * slots_);
}

Stacklet* StackRegion::init_slot(std::size_t slot) noexcept {
  Stacklet* s = header_of(slot);
  s->region = this;
  s->slot = static_cast<std::uint32_t>(slot);
  s->bytes = slot_bytes_;
  return s;
}

Stacklet* StackRegion::allocate_slow() {
  reclaim_top();
  const std::size_t t = top();
  if (t < slots_) {
    set_top(t + 1);
    if (t + 1 > high_water()) {
      high_water_.store(t + 1, std::memory_order_relaxed);
    }
    state_[t].store(kLive, std::memory_order_relaxed);
    tick(bump_allocs_);
    // Below mapped_top_ the header is still in place (the inline path
    // of allocate() missed only because the top slot was retired).
    if (t < mapped_top_) return header_of(t);
    mapped_top_ = t + 1;
    return init_slot(t);
  }
  // Bump pointer pinned at capacity by a live top frame: scavenge a
  // retired slot sandwiched below it.  The acquire CAS synchronizes with
  // the releasing worker's kRetired store, so reuse of the slot's memory
  // happens-after the dying stacklet's last writes.  The derived count is
  // a hint only, so a fruitless scan is possible and simply falls through
  // to the heap.
  hb::access(&released_, stu::kSchedAccessAtomic, hb::kSiteStackletCounter);
  if (retired_slots() > 0) {
    for (std::size_t slot = slots_; slot-- > 0;) {
      std::uint8_t expect = kRetired;
      if (state_[slot].compare_exchange_strong(expect, kLive,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
        tick(scavenges_);
        return header_of(slot);  // below the top: its header is in place
      }
    }
  }
  // Truly exhausted (every slot live): heap fallback (the paper's
  // multiple-physical-stacks alternative), reclaimed eagerly on release.
  heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  char* mem = static_cast<char*>(::operator new(slot_bytes_, std::align_val_t{16}));
  auto* s = reinterpret_cast<Stacklet*>(mem);
  s->region = nullptr;
  s->slot = 0;
  s->bytes = slot_bytes_;
  return s;
}

void StackRegion::release(Stacklet* s) noexcept {
  if (s->region == nullptr) {
    ::operator delete(reinterpret_cast<char*>(s), std::align_val_t{16});
    return;
  }
  StackRegion* r = s->region;
  // Counter first, mark second: the owner only accounts a slot as gone
  // after *observing* the kRetired mark (reclaim_top / scavenge), so this
  // order keeps the derived retired count from transiently underflowing.
  // The retirement mark itself is the analog of zeroing the
  // return-address slot; only the owner moves the bump pointer, so any
  // worker may store it.
  hb::access(&r->released_, stu::kSchedAccessAtomic, hb::kSiteStackletCounter);
  r->released_.fetch_add(1, std::memory_order_relaxed);
  r->state_[s->slot].store(kRetired, std::memory_order_release);
}

std::size_t StackRegion::reclaim_top() noexcept {
  std::size_t reclaimed = 0;
  std::size_t t = top();
  while (t > 0 && state_[t - 1].load(std::memory_order_acquire) == kRetired) {
    state_[t - 1].store(kFree, std::memory_order_relaxed);
    set_top(--t);
    ++reclaimed;
  }
  if (reclaimed > 0) {
    // The acquire loads above observed other workers' kRetired marks:
    // the slots' next users happen-after the dying stacklets' last uses.
    hb::access(&released_, stu::kSchedAccessAtomic, hb::kSiteStackletCounter);
    tick(reclaimed_, reclaimed);
    if (trim_slots_ > 0 && mapped_top_ >= t + trim_slots_) trim(t);
  }
  return reclaimed;
}

void StackRegion::trim(std::size_t new_top) noexcept {
  // Return the drained span's pages to the OS.  Slots are not required
  // to be page-multiples, so round the range inward; contents above the
  // bump pointer are dead (kFree), so MADV_DONTNEED's zeroing is safe.
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  auto lo = reinterpret_cast<std::uintptr_t>(base_ + new_top * slot_bytes_);
  auto hi = reinterpret_cast<std::uintptr_t>(base_ + mapped_top_ * slot_bytes_);
  lo = (lo + page - 1) & ~(page - 1);
  hi = hi & ~(page - 1);
  if (hi > lo) {
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
    tick(trims_);
  }
  mapped_top_ = new_top;
}

}  // namespace st
