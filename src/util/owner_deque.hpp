// Owner-only doubly-ended queue: the paper's `readyq` (Figure 11/12).
//
// Under the polling steal protocol of StackThreads/MP the ready queue is
// touched *only* by its owning worker -- thieves never access it directly;
// they post a request to the victim's port and the victim itself dequeues
// the tail on their behalf.  The deque therefore needs no synchronization
// at all, which is one of the paper's simplifications relative to Cilk's
// THE protocol.  (The Cilk-style baseline in src/cilk uses a locked deque
// instead; see cilk/deque.hpp.)
//
// Implemented as a growable ring buffer.  The element count is a relaxed
// atomic -- not for the owner (still the only mutator), but so the
// runtime monitor thread can sample size() as a depth gauge without a
// data race.  Relaxed load+store on the owner side compiles to the same
// plain moves as before on x86-64.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace stu {

template <typename T>
class OwnerDeque {
 public:
  explicit OwnerDeque(std::size_t initial_capacity = 16)
      : buf_(round_up(initial_capacity)) {}

  // Moves are setup-time only (e.g. vector<WorkerState>::resize); the
  // atomic count forces them to be spelled out.
  OwnerDeque(OwnerDeque&& o) noexcept
      : buf_(std::move(o.buf_)), head_(o.head_), count_(o.size()) {
    o.clear();
  }
  OwnerDeque& operator=(OwnerDeque&& o) noexcept {
    if (this != &o) {
      buf_ = std::move(o.buf_);
      head_ = o.head_;
      set_count(o.size());
      o.clear();
    }
    return *this;
  }

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return count_.load(std::memory_order_relaxed); }

  /// Push at the head (the logical stack top side; newest fork record).
  void push_head(T v) {
    if (size() == buf_.size()) [[unlikely]] grow();
    head_ = (head_ + mask()) & mask();  // head_ - 1 mod capacity
    buf_[head_] = std::move(v);
    set_count(size() + 1);
  }

  /// Push at the tail (oldest side; where resumed threads enter under LTC).
  void push_tail(T v) {
    if (size() == buf_.size()) [[unlikely]] grow();
    buf_[(head_ + size()) & mask()] = std::move(v);
    set_count(size() + 1);
  }

  /// Pop the newest entry. Precondition: !empty().
  T pop_head() {
    assert(size() > 0);
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask();
    set_count(size() - 1);
    return v;
  }

  /// Pop the oldest entry (what a steal hands out). Precondition: !empty().
  T pop_tail() {
    assert(size() > 0);
    const std::size_t n = size() - 1;
    set_count(n);
    return std::move(buf_[(head_ + n) & mask()]);
  }

  /// Peek without removal; index 0 is the head (newest).
  const T& peek(std::size_t i) const noexcept {
    assert(i < size());
    return buf_[(head_ + i) & mask()];
  }

  void clear() noexcept {
    head_ = 0;
    set_count(0);
  }

 private:
  std::size_t mask() const noexcept { return buf_.size() - 1; }

  static std::size_t round_up(std::size_t n) {
    std::size_t c = 8;
    while (c < n) c <<= 1;
    return c;
  }

  void set_count(std::size_t n) noexcept { count_.store(n, std::memory_order_relaxed); }

  /// Doubles the ring; only a push onto a full ring gets here, so the
  /// pushes keep just the size test inline.
  [[gnu::noinline]] void grow() {
    const std::size_t n = size();
    std::vector<T> bigger(buf_.size() * 2);
    for (std::size_t i = 0; i < n; ++i) bigger[i] = std::move(buf_[(head_ + i) & mask()]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::atomic<std::size_t> count_{0};
};

}  // namespace stu
