#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace xgbe::sim {

EventId EventQueue::schedule(SimTime at, std::uint64_t seq, Callback&& cb) {
  assert(seq < next_seq_);
  count_heap_fallback(cb);
  const std::uint32_t s = acquire_slot();
  callbacks_[s] = std::move(cb);
  const Key k{at, seq, s};
  if (vacant_) {
    // The root a pop() left vacant takes the key: one sift instead of a
    // removal sift at pop() plus an insertion sift here.
    vacant_ = false;
    sift_down(0, k);
  } else {
    heap_.push_back(k);
    sift_up(heap_.size() - 1, k);
  }
  return EventId{s, slots_[s].gen};
}

void EventQueue::cancel(EventId id) {
  if (id.slot >= slots_.size()) return;
  const Slot rec = slots_[id.slot];
  if (rec.gen != id.gen || rec.pos == kFreePos) return;
  // Filling the vacancy may move this event's key, so read its position
  // after that.
  if (vacant_) fill_vacancy();
  const std::uint32_t pos = slots_[id.slot].pos;
  // Destroy the captures only once the heap is consistent again, in case a
  // capture's destructor reaches back into the queue.
  Callback dead = std::move(callbacks_[id.slot]);
  release_slot(id.slot);
  remove_at(pos);
}

SimTime EventQueue::next_time() const {
  assert(!empty());
  if (!vacant_) return heap_.front().time;
  // The vacant root's children head every live subtree.
  const std::size_t end =
      heap_.size() < kArity + 1 ? heap_.size() : kArity + 1;
  SimTime earliest = heap_[1].time;
  for (std::size_t c = 2; c < end; ++c) {
    if (heap_[c].time < earliest) earliest = heap_[c].time;
  }
  return earliest;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  if (vacant_) fill_vacancy();
  const Key root = heap_.front();
  Fired fired{root.time, root.seq, std::move(callbacks_[root.slot])};
  release_slot(root.slot);
  // Left for the next schedule() (or the next pop() or cancel()) to fill.
  vacant_ = true;
  return fired;
}

std::string EventQueue::invariant_violation() const {
  const std::size_t first = vacant_ ? 1 : 0;
  if (heap_.size() < first) return "vacant root in an empty heap";
  for (std::size_t i = first; i < heap_.size(); ++i) {
    const Key& k = heap_[i];
    const auto at = [i] { return "key at " + std::to_string(i); };
    if (k.slot >= slots_.size()) return at() + " names no slot";
    if (slots_[k.slot].pos != i) {
      return at() + ": its slot points at " +
             std::to_string(slots_[k.slot].pos);
    }
    if (!callbacks_[k.slot]) return at() + ": its slot holds no callback";
    // The vacancy's children have no parent key to order after.
    const std::size_t parent = i > 0 ? (i - 1) / kArity : 0;
    if (i > 0 && parent >= first && before(k, heap_[parent])) {
      return at() + " orders before its parent at " + std::to_string(parent);
    }
  }
  std::size_t live = 0;
  for (const Slot& slot : slots_) live += slot.pos != kFreePos ? 1 : 0;
  if (live != size()) {
    return std::to_string(live) + " live slots, size() " +
           std::to_string(size());
  }
  if (live + free_slots_.size() != slots_.size()) {
    return std::to_string(slots_.size() - live) + " free slots, free list " +
           std::to_string(free_slots_.size());
  }
  return {};
}

std::uint32_t EventQueue::acquire_slot() {
  // The slot's position is set when its key is placed.
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  // Generations start at 1 so a default-constructed EventId (gen 0) can
  // never match a live slot.
  slots_.push_back(Slot{kFreePos, 1});
  callbacks_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t s) {
  slots_[s].pos = kFreePos;
  ++slots_[s].gen;  // invalidates every outstanding EventId for this slot
  free_slots_.push_back(s);
}

void EventQueue::fill_vacancy() {
  vacant_ = false;
  const Key last = heap_.back();
  heap_.pop_back();
  // When the vacancy was the last position, nothing is left to move.
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::remove_at(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void EventQueue::sift_up(std::size_t i, const Key k) {
  while (i > 0) {
    const std::size_t p = (i - 1) / kArity;
    if (!before(k, heap_[p])) break;
    place(i, heap_[p]);
    i = p;
  }
  place(i, k);
}

void EventQueue::sift_down(std::size_t i, const Key k) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], k)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, k);
}

}  // namespace xgbe::sim
