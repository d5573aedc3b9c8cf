// Cache-line utilities shared by all StackThreads/MP modules.
//
// The runtime keeps per-worker hot state (deque pointers, steal ports,
// exported-set heads) on distinct cache lines; every cross-worker mailbox
// in the polling steal protocol is padded to a full line to avoid false
// sharing between the requester's spin loop and the victim's poll.
#pragma once

#include <cstddef>

namespace stu {

/// One fixed value rather than std::hardware_destructive_interference_size,
/// whose value GCC warns may change between compiler versions and flags
/// (an ABI hazard for padded layouts); 64 bytes is the line of every x86-64
/// and common AArch64 part this runs on.
inline constexpr std::size_t kCacheLine = 64;

/// Spin-wait hint: de-pipelines the core briefly and (on x86) releases
/// the sibling hyperthread.  Stage 1 of the idle backoff.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // portable fallback: nothing cheaper than a compiler barrier
  asm volatile("" ::: "memory");
#endif
}

/// Wraps a value so that it occupies (at least) one full cache line.
/// Used for per-worker slots in shared arrays.
template <typename T>
struct alignas(kCacheLine) CacheAligned {
  T value{};

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

}  // namespace stu
