// StackRegion: the paper's physical-stack discipline at stacklet
// granularity -- allocation at the top, out-of-order frees retire, shrink
// pops retired tops (Section 5 collapsed onto slots; see stacklet.hpp).
#include "runtime/stacklet.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace {

constexpr std::size_t kSlot = 16 * 1024;

TEST(StackRegion, LifoAllocationReusesTopSlot) {
  st::StackRegion region(kSlot, 8);
  st::Stacklet* a = region.allocate();
  EXPECT_EQ(a->slot, 0u);
  st::StackRegion::release(a);
  st::Stacklet* b = region.allocate();  // shrink reclaims slot 0 first
  EXPECT_EQ(b->slot, 0u);
  EXPECT_EQ(region.high_water(), 1u);
  st::StackRegion::release(b);
}

TEST(StackRegion, OutOfOrderFreeRetainsSlotUntilShrink) {
  st::StackRegion region(kSlot, 8);
  st::Stacklet* a = region.allocate();  // slot 0
  st::Stacklet* b = region.allocate();  // slot 1
  st::StackRegion::release(a);          // out of order: slot 0 retires
  EXPECT_EQ(region.top(), 2u);          // no reclamation possible yet
  st::Stacklet* c = region.allocate();  // allocated ABOVE the hole: slot 2
  EXPECT_EQ(c->slot, 2u);
  // Freeing the top frames lets shrink pop them -- and then the retired
  // slot 0 as well, exactly like repeated `shrink` in the model.
  st::StackRegion::release(c);
  st::StackRegion::release(b);
  region.reclaim_top();
  EXPECT_EQ(region.top(), 0u);
  EXPECT_EQ(region.high_water(), 3u);
}

TEST(StackRegion, HeapFallbackWhenExhausted) {
  st::StackRegion region(kSlot, 2);
  st::Stacklet* a = region.allocate();
  st::Stacklet* b = region.allocate();
  st::Stacklet* c = region.allocate();  // region full -> heap
  EXPECT_EQ(c->region, nullptr);
  EXPECT_EQ(region.heap_fallbacks(), 1u);
  st::StackRegion::release(c);  // freed eagerly, no owner involvement
  st::StackRegion::release(b);
  st::StackRegion::release(a);
  region.reclaim_top();
  EXPECT_EQ(region.top(), 0u);
}

TEST(StackRegion, StackAreaIsUsableAndDisjoint) {
  st::StackRegion region(kSlot, 4);
  st::Stacklet* a = region.allocate();
  st::Stacklet* b = region.allocate();
  // Touch both stack areas end to end; they must not alias.
  std::memset(a->stack_base(), 0xAA, a->stack_bytes());
  std::memset(b->stack_base(), 0xBB, b->stack_bytes());
  EXPECT_EQ(static_cast<unsigned char>(a->stack_base()[0]), 0xAA);
  EXPECT_EQ(static_cast<unsigned char>(b->stack_base()[0]), 0xBB);
  EXPECT_GE(a->stack_bytes(), kSlot - 1024);
  st::StackRegion::release(b);
  st::StackRegion::release(a);
}

TEST(StackRegion, RejectsTinySlots) {
  EXPECT_THROW(st::StackRegion(256, 4), std::invalid_argument);
}

TEST(StackRegion, ScavengeReusesRetiredSlotUnderLiveTop) {
  // The bump pointer is pinned at capacity by a live top frame; a retired
  // slot sandwiched below it must be scavenged before any heap fallback.
  st::StackRegion region(kSlot, 4, /*trim_slots=*/0);
  st::Stacklet* a = region.allocate();  // slot 0
  st::Stacklet* b = region.allocate();  // slot 1
  st::Stacklet* c = region.allocate();  // slot 2
  st::Stacklet* d = region.allocate();  // slot 3: top pinned at capacity
  st::StackRegion::release(b);          // retire under the live top
  EXPECT_EQ(region.retired_slots(), 1u);
  st::Stacklet* e = region.allocate();  // must scavenge slot 1, not the heap
  EXPECT_EQ(e->slot, 1u);
  EXPECT_EQ(e->region, &region);
  EXPECT_EQ(region.scavenges(), 1u);
  EXPECT_EQ(region.heap_fallbacks(), 0u);
  EXPECT_EQ(region.retired_slots(), 0u);
  st::StackRegion::release(e);
  st::StackRegion::release(d);
  st::StackRegion::release(c);
  st::StackRegion::release(a);
  region.reclaim_top();
  EXPECT_EQ(region.top(), 0u);
}

TEST(StackRegion, DerivedCountsAreExactAtQuiescence) {
  // live/retired are derived from single-writer counters, not scans
  // (live = allocs + scavenges - released - popped); walk them through a
  // full retire/shrink cycle.
  st::StackRegion region(kSlot, 8, /*trim_slots=*/0);
  st::Stacklet* a = region.allocate();
  st::Stacklet* b = region.allocate();
  st::Stacklet* c = region.allocate();
  EXPECT_EQ(region.live_slots(), 3u);
  EXPECT_EQ(region.retired_slots(), 0u);
  st::StackRegion::release(a);  // out of order: retires
  EXPECT_EQ(region.live_slots(), 2u);
  EXPECT_EQ(region.retired_slots(), 1u);
  st::StackRegion::release(c);  // top slot, but counts stay derived-only
  st::StackRegion::release(b);
  EXPECT_EQ(region.live_slots(), 0u);
  region.reclaim_top();
  EXPECT_EQ(region.retired_slots(), 0u);
  EXPECT_EQ(region.top(), 0u);
}

TEST(StackRegion, ReleaseLocalPopsTopWithoutRetiring) {
  // The owner's release fast path: a LIFO completion pops the bump
  // pointer directly and never touches the retired set; a non-top
  // release falls back to the ordinary retire.
  st::StackRegion region(kSlot, 8, /*trim_slots=*/0);
  st::Stacklet* a = region.allocate();  // slot 0
  st::Stacklet* b = region.allocate();  // slot 1 == top
  region.release_local(b);
  EXPECT_EQ(region.top(), 1u);
  EXPECT_EQ(region.retired_slots(), 0u);
  EXPECT_EQ(region.live_slots(), 1u);
  region.release_local(a);  // now the top: popped too
  EXPECT_EQ(region.top(), 0u);
  st::Stacklet* c = region.allocate();  // slot 0 again
  st::Stacklet* d = region.allocate();  // slot 1
  region.release_local(c);  // NOT the top: defers to release() and retires
  EXPECT_EQ(region.retired_slots(), 1u);
  EXPECT_EQ(region.top(), 2u);
  region.release_local(d);
  region.reclaim_top();
  EXPECT_EQ(region.top(), 0u);
  EXPECT_EQ(region.live_slots(), 0u);
}

TEST(StackRegion, TrimReturnsDrainedPagesAndKeepsSlotsUsable) {
  // Shrinking far below the high-water mark madvises the drained span;
  // the pages must come back zero-filled-on-touch but fully usable.
  st::StackRegion region(kSlot, 32, /*trim_slots=*/2);
  std::vector<st::Stacklet*> held;
  for (int i = 0; i < 16; ++i) {
    st::Stacklet* s = region.allocate();
    std::memset(s->stack_base(), 0xCD, 128);  // touch so pages are mapped
    held.push_back(s);
  }
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    st::StackRegion::release(*it);
  }
  region.reclaim_top();
  EXPECT_EQ(region.top(), 0u);
  EXPECT_GE(region.trims(), 1u);
  st::Stacklet* again = region.allocate();
  std::memset(again->stack_base(), 0xEF, again->stack_bytes());
  EXPECT_EQ(static_cast<unsigned char>(again->stack_base()[0]), 0xEF);
  st::StackRegion::release(again);
}

// Randomized churn against a reference count of live slots: the region
// must never hand out a live slot twice and always reclaim fully drained
// prefixes.
class RegionChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionChurnTest, NeverAliasesLiveSlots) {
  stu::Xoshiro256 rng(GetParam());
  st::StackRegion region(kSlot, 64);
  std::vector<st::Stacklet*> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      st::Stacklet* s = region.allocate();
      if (s->region != nullptr) {
        for (auto* other : live) {
          if (other->region != nullptr) {
            ASSERT_NE(other->slot, s->slot);
          }
        }
      }
      live.push_back(s);
    } else {
      const std::size_t k = rng.below(live.size());
      st::StackRegion::release(live[k]);
      live.erase(live.begin() + static_cast<long>(k));
    }
    ASSERT_GE(region.top(), region.live_slots());
  }
  for (auto* s : live) st::StackRegion::release(s);
  region.reclaim_top();
  EXPECT_EQ(region.top(), 0u);
  EXPECT_EQ(region.live_slots(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionChurnTest, ::testing::Values(3u, 11u, 29u, 71u));

}  // namespace
