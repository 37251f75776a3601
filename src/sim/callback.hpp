// Small-buffer-optimized event callback.
//
// Scheduling a simulation event should not allocate: hot-path capture sets
// (timer lambdas capturing `this`, per-frame continuations carrying the
// frame itself by value) fit a 104-byte inline buffer, and
// Simulator::heap_fallbacks() counts the scheduled callbacks that do not, so
// tests can pin the hot paths at zero. Larger callables still work through
// a heap fallback, so the type is a drop-in replacement for
// std::function<void()> at the scheduling boundary — with two deliberate
// differences: it is move-only (so it can hold move-only captures, e.g. a
// continuation that owns another InlineCallback), and invoking an empty
// callback is a no-op contractually guarded by callers (the simulator tests
// with operator bool before dispatch).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace xgbe::sim {

class InlineCallback {
 public:
  /// One net::Packet (88 bytes) plus two words: every event that carries a
  /// frame captures it by value, and the largest such capture is the
  /// switch's fabric crossing, [this, egress port, frame], at 104 bytes.
  /// A frame that outgrows this fails test_sim's static_asserts instead of
  /// silently allocating per event.
  static constexpr std::size_t kInlineBytes = 104;

  /// True when callables of type F are stored inline (no allocation).
  /// Exposed so tests can pin the size budget of hot-path capture sets.
  template <typename F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* p = new D(std::forward<F>(f));
      std::memcpy(storage_, &p, sizeof(p));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { steal(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InlineCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the held callable took the heap fallback (it allocated).
  /// The simulator counts these per scheduled event (heap_fallbacks()).
  bool on_heap() const { return ops_ != nullptr && ops_->heap; }

 private:
  using Invoke = void (*)(void*);
  // Moves the callable from `src` into `dst` (raw storage), or destroys it
  // when `dst` is null. After a move the source is dead; the caller clears
  // its ops pointer instead of destroying again.
  using Manage = void (*)(void* src, void* dst);
  // One static table per stored type, so the object carries a single
  // pointer next to its buffer and stays 112 bytes.
  struct Ops {
    Invoke invoke;
    Manage manage;
    bool heap;
  };

  template <typename D>
  static void invoke_inline(void* s) {
    (*std::launder(reinterpret_cast<D*>(s)))();
  }
  template <typename D>
  static void manage_inline(void* s, void* d) {
    D* f = std::launder(reinterpret_cast<D*>(s));
    if (d != nullptr) ::new (d) D(std::move(*f));
    f->~D();
  }
  template <typename D>
  static void invoke_heap(void* s) {
    D* p;
    std::memcpy(&p, s, sizeof(p));
    (*p)();
  }
  template <typename D>
  static void manage_heap(void* s, void* d) {
    D* p;
    std::memcpy(&p, s, sizeof(p));
    if (d != nullptr) {
      std::memcpy(d, &p, sizeof(p));
    } else {
      delete p;
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps{&invoke_inline<D>, &manage_inline<D>, false};
  template <typename D>
  static constexpr Ops kHeapOps{&invoke_heap<D>, &manage_heap<D>, true};

  void steal(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->manage(other.storage_, storage_);
    other.ops_ = nullptr;
  }

  void reset() {
    if (ops_ != nullptr) ops_->manage(storage_, nullptr);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace xgbe::sim
