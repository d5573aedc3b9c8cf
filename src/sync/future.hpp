// Futures on top of suspend/resume -- the paper's titular abstraction.
//
// A FutureCell<T> is a single-assignment value any number of fine-grain
// threads may block on.  st::spawn(f) is the future call: it forks f as a
// fine-grain thread and returns a handle whose get() suspends until the
// value arrives.  Under LIFO scheduling the child usually completes before
// the parent ever reaches get(), so the common case is a plain load.
//
// Protocol (DESIGN.md §5.16).  One atomic state word is kEmpty, kReady,
// or the head of a list of waiters.  Each waiter node lives on its
// suspended owner's stack and is pushed by CAS from the suspend()
// after-callback, once the owner's sp is written.  set() stores the value
// and takes the whole list with one exchange; get() is one acquire load
// when the value is in.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "runtime/annotate.hpp"
#include "runtime/runtime.hpp"

namespace st {

template <typename T>
class Future;

template <typename T>
class FutureCell {
 public:
  FutureCell() = default;
  FutureCell(const FutureCell&) = delete;
  FutureCell& operator=(const FutureCell&) = delete;

  /// Fulfills the future; wakes every waiter (deferred, LTC order).
  /// Precondition: not yet fulfilled.
  void set(T value) {
    assert(!ready() && "future set twice");
    value_.emplace(std::move(value));
    hb::acq_rel(this, stu::kSchedHbJoin);
    const std::uintptr_t prev = state_.exchange(kReady, std::memory_order_acq_rel);
    // The waiters' histories reach their resume edges through us.
    if (prev != kEmpty) hb::acquire(this, stu::kSchedHbJoin);
    // A woken waiter may run (and free its node) at once: read the link
    // before each resume.
    for (auto* w = reinterpret_cast<Waiter*>(prev); w != nullptr;) {
      Waiter* next = w->next;
      resume(&w->c);
      w = next;
    }
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

  static constexpr std::uintptr_t kEmpty = 0;
  static constexpr std::uintptr_t kReady = 1;

  struct Waiter {
    Continuation c;
    Waiter* next = nullptr;
    FutureCell* cell = nullptr;
  };

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
  std::optional<T> value_;
};

/// Shared-ownership handle to a future value.  Copies share one cell; the
/// last handle dropped frees it.
template <typename T>
class Future {
 public:
  Future() : cell_(new FutureCell<T>) {}
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
    // what it did with the cell) before the delete.
    if (cell_->refs_.load(std::memory_order_acquire) == 1 ||
        cell_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete cell_;
    }
  }

  const T& get() const { return cell_->get(); }
  bool ready() const { return cell_->ready(); }
  void set(T v) const { cell_->set(std::move(v)); }

 private:
  FutureCell<T>* cell_;
};

/// The future call: ASYNC_CALL returning a value.  Forks `f` as a
/// fine-grain thread; the handle's get() suspends until f's result is in.
/// The child's copy of the handle takes its reference before the fork
/// publishes the cell.
template <typename F, typename R = std::invoke_result_t<F>>
Future<R> spawn(F&& f) {
  Future<R> handle;
  fork([handle, fn = std::forward<F>(f)]() mutable { handle.set(fn()); });
  return handle;
}

}  // namespace st
