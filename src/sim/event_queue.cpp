#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace xgbe::sim {

EventId EventQueue::schedule(SimTime at, std::uint64_t seq, Callback cb) {
  assert(seq < next_seq_);
  count_heap_fallback(cb);
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  const std::uint32_t s = acquire_slot(pos);
  callbacks_[s] = std::move(cb);
  heap_.push_back(Key{at, seq, s});
  sift_up(pos);
  return EventId{s, slots_[s].gen};
}

void EventQueue::cancel(EventId id) {
  if (id.slot >= slots_.size()) return;
  const Slot rec = slots_[id.slot];
  if (rec.gen != id.gen || rec.pos == kFreePos) return;
  // Destroy the captures only once the heap is consistent again, in case a
  // capture's destructor reaches back into the queue.
  Callback dead = std::move(callbacks_[id.slot]);
  release_slot(id.slot);
  remove_at(rec.pos);
}

SimTime EventQueue::next_time() const {
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Key root = heap_.front();
  Fired fired{root.time, root.seq, std::move(callbacks_[root.slot])};
  release_slot(root.slot);
  remove_at(0);
  return fired;
}

std::uint32_t EventQueue::acquire_slot(std::uint32_t pos) {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    slots_[s].pos = pos;
    return s;
  }
  // Generations start at 1 so a default-constructed EventId (gen 0) can
  // never match a live slot.
  slots_.push_back(Slot{pos, 1});
  callbacks_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t s) {
  slots_[s].pos = kFreePos;
  ++slots_[s].gen;  // invalidates every outstanding EventId for this slot
  free_slots_.push_back(s);
}

void EventQueue::remove_at(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void EventQueue::sift_up(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t p = (i - 1) / kArity;
    if (!before(k, heap_[p])) break;
    place(i, heap_[p]);
    i = p;
  }
  place(i, k);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key k = heap_[i];
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
