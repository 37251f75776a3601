// Deterministic pending-event set.
//
// Events are ordered by (time, sequence); the sequence tiebreak makes
// simulations bit-for-bit reproducible regardless of heap internals. A
// sequence is normally taken when the event is scheduled, but a caller may
// reserve one first (reserve_seq) and schedule with it later: the event then
// orders exactly as if it had been scheduled at reservation time. Links use
// this to keep one pending delivery per direction while every frame keeps
// the (arrival, seq) key it would have had as its own event.
//
// The pending set is an indexed 4-ary min-heap of 24-byte {time, seq, slot}
// keys. Callbacks never enter the heap: each lives in its handle slot from
// schedule() until pop() moves it out, so sifts copy plain keys and never
// touch a callback, and a callback is relocated exactly twice (the schedule
// calls take it by rvalue reference). Every live event's heap position is
// tracked in its slot, so cancel() removes the key in O(log n) instead of
// deferring to a lazy skip list. Handles are (slot, generation) pairs;
// firing or cancelling an event bumps the slot's generation, which makes
// stale EventIds (cancel-after-fire, duplicate cancel) exact no-ops.
//
// pop() leaves the root vacant instead of refilling it at once: most events
// schedule another, and the next schedule() writes its key into the
// vacancy and sifts it down, so firing one event and scheduling one costs a
// single sift. A pop() or cancel() that finds the root vacant fills it with
// the last key first; next_time() reads the earliest of its <= 4 children;
// size() and empty() do not count it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// Opaque handle for cancelling a scheduled event. A default-constructed
/// EventId refers to nothing; cancelling it is a harmless no-op.
struct EventId {
  std::uint32_t slot = 0xffffffffu;
  std::uint32_t gen = 0;
  friend bool operator==(const EventId&, const EventId&) = default;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `cb` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(SimTime at, Callback&& cb) {
    return schedule(at, reserve_seq(), std::move(cb));
  }

  /// Takes the next tie-break sequence without scheduling anything.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `cb` at `at` with a sequence from reserve_seq(). Each
  /// reserved sequence may be used at most once.
  EventId schedule(SimTime at, std::uint64_t seq, Callback&& cb);

  /// Cancels a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event is a harmless no-op.
  void cancel(EventId id);

  bool empty() const { return size() == 0; }
  std::size_t size() const { return heap_.size() - (vacant_ ? 1 : 0); }

  /// Time of the earliest live event. Precondition: !empty().
  SimTime next_time() const;

  /// Pops and returns the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  Fired pop();

  /// Scheduled callbacks that took InlineCallback's heap fallback (each
  /// one allocated). Deterministic, so tests can gate it.
  std::uint64_t heap_fallbacks() const { return heap_fallbacks_; }

  /// Counts `cb` in heap_fallbacks() if it took the heap fallback.
  void count_heap_fallback(const Callback& cb) {
    if (cb.on_heap()) ++heap_fallbacks_;
  }

  /// Recomputes the heap's invariants from scratch: (time, seq) heap order
  /// over the live keys, every key's slot pointing back at its position,
  /// every live slot holding a callback, and size() leaving the vacant
  /// root out. Returns the first violation found, or "" (a test hook).
  std::string invariant_violation() const;

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;  // determinism tiebreak: (time, seq) is a total order
    std::uint32_t slot;
  };

  struct Slot {
    std::uint32_t pos;  // index into heap_, kFreePos when not live
    std::uint32_t gen;
  };
  static constexpr std::uint32_t kFreePos = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  static bool before(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t s);
  /// Moves the last key into the vacant root and sifts it down.
  void fill_vacancy();
  void remove_at(std::size_t i);
  /// Sift `k` from position `i`, whose old key is dead, to its place.
  void sift_up(std::size_t i, Key k);
  void sift_down(std::size_t i, Key k);
  void place(std::size_t i, const Key& k) {
    heap_[i] = k;
    slots_[k.slot].pos = static_cast<std::uint32_t>(i);
  }

  std::vector<Key> heap_;  // heap_[0] holds a dead key while vacant_
  bool vacant_ = false;
  std::vector<Slot> slots_;
  std::vector<Callback> callbacks_;  // indexed like slots_
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t heap_fallbacks_ = 0;
};

}  // namespace xgbe::sim
