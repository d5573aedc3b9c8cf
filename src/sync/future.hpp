// Futures on top of suspend/resume -- the paper's titular abstraction.
//
// A FutureCell<T> is a single-assignment value any number of fine-grain
// threads may block on.  st::spawn(f) is the future call: it forks f as a
// fine-grain thread and returns a handle whose get() suspends until the
// value arrives.  Under LIFO scheduling the child usually completes before
// the parent ever reaches get(), so the common case is a plain load.
//
// Protocol (DESIGN.md §5.16).  One atomic state word is kEmpty, kReady,
// kAbandoned, or the head of a list of waiters.  Each waiter node lives on
// its suspended owner's stack and is pushed by CAS from the suspend()
// after-callback, once the owner's sp is written.  set() stores the value
// and takes the whole list with one exchange; get() is one acquire load
// when the value is in.
//
// Ownership.  Handles (Future) count themselves in refs_.  A spawned child
// holds no handle: it keeps a raw cell pointer and only emplaces the
// value.  If it finished under its parent (joined), spawn() itself marks
// the cell kReady with a plain store: no handle copy and no waiter can
// exist before spawn() returns.  A detached child's completion hook runs
// set()'s exchange instead, its last touch of the cell unless that
// exchange finds kAbandoned -- the mark the last handle leaves when it
// drops before the value arrives -- in which case it frees the cell.  A
// joined spawn therefore costs no RMW, a detached one one.  Cells of up
// to CellCache::kBlockBytes come from a per-worker cache.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "runtime/annotate.hpp"
#include "runtime/runtime.hpp"

namespace st {

template <typename T>
class Future;

template <typename F, typename R = std::invoke_result_t<F>>
Future<R> spawn(F&& f);

namespace detail {

// Cell storage.  The cache is reached only through these out-of-line
// functions: ~Future may run after get() moved the thread to another
// worker, and a tl_worker read inlined into it could reuse the TLS
// address of the thread it started on (lint_suspend_safety rule 3).
// Off a worker -- e.g. a handle that outlives its Runtime -- blocks
// come from and go to the heap.

[[gnu::noinline]] inline void* cell_block_take() {
  Worker* w = tl_worker;
  void* p = w != nullptr ? w->cell_cache().take() : nullptr;
  return p != nullptr ? p : ::operator new(CellCache::kBlockBytes);
}

[[gnu::noinline]] inline void cell_block_give(void* p) noexcept {
  Worker* w = tl_worker;
  if (w == nullptr || !w->cell_cache().give(p)) ::operator delete(p);
}

}  // namespace detail

template <typename T>
class FutureCell {
 public:
  /// Whether cells of this type live in the per-worker block cache.
  static constexpr bool cached() {
    return sizeof(FutureCell) <= CellCache::kBlockBytes &&
           alignof(FutureCell) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  }

  FutureCell() = default;
  FutureCell(const FutureCell&) = delete;
  FutureCell& operator=(const FutureCell&) = delete;

  /// Fulfills the future; wakes every waiter (deferred, LTC order).
  /// Precondition: not yet fulfilled.
  void set(T value) {
    assert(!ready() && "future set twice");
    value_.emplace(std::move(value));
    publish();
  }

  bool ready() const { return state_.load(std::memory_order_acquire) == kReady; }

  /// Blocks the calling fine-grain thread until the value is available.
  const T& get() {
    if (!ready()) [[unlikely]] wait();
    hb::acquire(this, stu::kSchedHbJoin);
    return *value_;
  }

 private:
  friend class Future<T>;
  template <typename F, typename R>
  friend Future<R> spawn(F&& f);

  static constexpr std::uintptr_t kEmpty = 0;
  static constexpr std::uintptr_t kReady = 1;
  /// Last handle dropped with a spawned producer still pending.
  static constexpr std::uintptr_t kAbandoned = 2;

  struct Waiter {
    Continuation c;
    Waiter* next = nullptr;
    FutureCell* cell = nullptr;
  };

  /// The value is in: mark the cell ready and wake every waiter.
  void publish() {
    hb::acq_rel(this, stu::kSchedHbJoin);
    const std::uintptr_t prev = state_.exchange(kReady, std::memory_order_acq_rel);
    // No waiter: a spawned producer must not touch the cell again (the
    // handle may free it at once).
    if (prev == kEmpty) return;
    hb::acquire(this, stu::kSchedHbJoin);
    if (prev == kAbandoned) [[unlikely]] {
      // Every handle is gone: the producer frees.
      destroy(this);
      return;
    }
    // The waiters hold handles, so the cell is live until they run.  A
    // woken waiter may run (and free its node) at once: read the link
    // before each resume.
    for (auto* w = reinterpret_cast<Waiter*>(prev); w != nullptr;) {
      Waiter* next = w->next;
      resume(&w->c);
      w = next;
    }
  }

  /// A spawned child's completion hook, run only if it detached.
  static void publish_detached(void* p) { static_cast<FutureCell*>(p)->publish(); }

  static FutureCell* create() {
    if constexpr (cached()) {
      return new (detail::cell_block_take()) FutureCell;
    } else {
      return new FutureCell;
    }
  }

  static void destroy(FutureCell* c) noexcept {
    if constexpr (cached()) {
      c->~FutureCell();
      detail::cell_block_give(c);
    } else {
      delete c;
    }
  }

  /// The last handle is gone.  No waiter list can exist: a waiter is
  /// inside get() and holds a handle.  Free now unless a spawned
  /// producer has yet to set(); then mark the cell so set() frees it.
  void drop_last_handle() {
    if (producer_pending_ && state_.load(std::memory_order_acquire) != kReady) {
      hb::acq_rel(this, stu::kSchedHbJoin);
      std::uintptr_t expect = kEmpty;
      if (state_.compare_exchange_strong(expect, kAbandoned, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return;
      }
      // The value arrived in between.
      assert(expect == kReady);
    }
    hb::acquire(this, stu::kSchedHbJoin);
    destroy(this);
  }

  [[gnu::noinline]] void wait() {
    Waiter w;
    w.cell = this;
    suspend(&w.c, &FutureCell::enlist, &w);
    // Woken by set(); this load pairs with its exchange.
    [[maybe_unused]] const bool in = ready();
    assert(in);
  }

  /// suspend() after-callback: push the waiter, or wake it at once if
  /// set() got there first.  After a successful push the node belongs to
  /// set().
  static void enlist(void* p) {
    auto* w = static_cast<Waiter*>(p);
    // Everything the waiter did happens-before set()'s resume of it.
    hb::acq_rel(w->cell, stu::kSchedHbJoin);
    std::atomic<std::uintptr_t>& state = w->cell->state_;
    std::uintptr_t head = state.load(std::memory_order_acquire);
    do {
      if (head == kReady) {
        resume(&w->c);
        return;
      }
      w->next = reinterpret_cast<Waiter*>(head);
    } while (!state.compare_exchange_weak(head, reinterpret_cast<std::uintptr_t>(w),
                                          std::memory_order_release,
                                          std::memory_order_acquire));
  }

  std::atomic<std::uintptr_t> state_{kEmpty};
  /// Owning Future handles (intrusive count; see Future).
  std::atomic<std::uint32_t> refs_{1};
  /// Set by spawn before the fork publishes the cell; never cleared.
  bool producer_pending_ = false;
  std::optional<T> value_;
};

/// Shared-ownership handle to a future value.  Copies share one cell; the
/// last handle dropped frees it (or hands it to a pending producer).
template <typename T>
class Future {
 public:
  Future() : cell_(FutureCell<T>::create()) {}
  Future(const Future& o) noexcept : cell_(o.cell_) {
    cell_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  Future(Future&& o) noexcept : cell_(std::exchange(o.cell_, nullptr)) {}
  Future& operator=(Future o) noexcept {
    std::swap(cell_, o.cell_);
    return *this;
  }
  ~Future() {
    if (cell_ == nullptr) return;  // moved from
    // A sole owner needs no RMW: no other handle exists to copy from.
    // The acquire load orders every other owner's release decrement (and
    // what it did with the cell) before the drop.
    if (cell_->refs_.load(std::memory_order_acquire) == 1 ||
        cell_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cell_->drop_last_handle();
    }
  }

  const T& get() const { return cell_->get(); }
  bool ready() const { return cell_->ready(); }
  void set(T v) const { cell_->set(std::move(v)); }

 private:
  template <typename F, typename R>
  friend Future<R> spawn(F&& f);

  FutureCell<T>* cell_;
};

/// The future call: ASYNC_CALL returning a value.  Forks `f` as a
/// fine-grain thread; the handle's get() suspends until f's result is in.
/// The child holds the cell by raw pointer, not by handle; the pending
/// mark is a plain write the fork publishes along with the cell.
template <typename F, typename R>
Future<R> spawn(F&& f) {
  Future<R> handle;
  FutureCell<R>* cell = handle.cell_;
  cell->producer_pending_ = true;
  if (detail::fork_run([cell, fn = std::forward<F>(f)]() mutable { cell->value_.emplace(fn()); },
                       &FutureCell<R>::publish_detached, cell)) [[likely]] {
    // Joined: the value is in and only this frame knows the cell.
    cell->state_.store(FutureCell<R>::kReady, std::memory_order_release);
  }
  return handle;
}

}  // namespace st
