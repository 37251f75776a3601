#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

namespace xgbe::sim {

void Simulator::run_until(SimTime horizon) {
  stopped_ = false;
  while (!stopped_) {
    const bool events = !queue_.empty();
    const SimTime next = events ? queue_.next_time() : kNever;
    // A boundary hook fires once every event at or before its due time has
    // executed — i.e. when the next pending event lies strictly past the
    // boundary. Firing happens *between* events and touches no simulation
    // state, so armed runs stay bit-identical (executed-event count
    // included). The clock is deliberately left alone: the boundary time
    // travels in the advance() argument. Marks are run only where the
    // clock is observed: at a boundary and when the run returns.
    if (hook_ != nullptr && hook_->due() < next && hook_->due() <= horizon &&
        !fire_hooks_before(next, horizon)) {
      break;
    }
    if (!events || next > horizon) {
      // No event at or before the horizon, so the marks there run too. The
      // run drains unless a mark is pending past the horizon.
      if (!events && !(live(last_mark_) && last_mark_.time > horizon)) break;
      // A horizon behind the clock runs nothing and leaves it alone, so the
      // marks it passed stay passed.
      if (horizon >= now_) set_clock(horizon);
      return;
    }
    auto fired = queue_.pop();
    // An event may take a sequence reserved before the clock last moved
    // without one, at that time: the marks the move passed stay passed.
    if (fired.time != now_ || fired.seq > last_seq_) last_seq_ = fired.seq;
    now_ = fired.time;
    ++executed_;
    // Null callbacks are legal: an event that only moves the clock. (A
    // Resource job without a continuation is a clock mark instead.)
    if (fired.cb) fired.cb();
  }
  if (stopped_) return;
  // The pending set drained: the clock ends on the last mark, if one lies
  // past the last event. Then advance it to the horizon anyway so bounded
  // waits always make progress. run() passes SimTime max as its horizon;
  // leave the clock alone there.
  if (live(last_mark_)) set_clock(last_mark_.time);
  if (horizon != kNever) {
    if (now_ < horizon) set_clock(horizon);
    // State is frozen up to the horizon, so every boundary in (last event,
    // horizon] is observable now. run() (horizon = max) takes no tail —
    // there is no bound to observe up to.
    if (hook_ != nullptr) {
      while (hook_->due() <= horizon) hook_->advance(hook_->due());
    }
  }
}

bool Simulator::fire_hooks_before(SimTime next, SimTime horizon) {
  do {
    const SimTime due = hook_->due();
    run_marks_through(due);
    // Nothing left to run: the run drains here and fires this boundary in
    // its tail, with the clock at the horizon.
    if (queue_.empty() && !live(last_mark_)) return false;
    hook_->advance(due);
  } while (hook_->due() < next && hook_->due() <= horizon);
  return true;
}

SimTime Simulator::first_live_mark() const {
  for (const Mark& m : marks_) {
    if (!live(m)) continue;
    mark_heap_.push_back(m);
    std::push_heap(mark_heap_.begin(), mark_heap_.end(), after);
  }
  marks_.clear();
  // Passed marks order before every pending one, so they are all on top.
  // last_mark_ is pending, so the heap never empties here.
  while (!live(mark_heap_.front())) {
    std::pop_heap(mark_heap_.begin(), mark_heap_.end(), after);
    mark_heap_.pop_back();
  }
  return mark_heap_.front().time;
}

void Simulator::compact_marks() {
  std::size_t kept = 0;
  for (const Mark& m : marks_) {
    if (live(m)) marks_[kept++] = m;
  }
  marks_.resize(kept);
  // Pending marks stay, so grow the threshold with them: compaction then
  // costs O(1) per mark however many are pending at once.
  compact_at_ = std::max(kCompactFloor, 2 * kept);
}

void Simulator::run_marks_through(SimTime bound) {
  if (!live(last_mark_) || first_live_mark() > bound) return;
  // Only pending marks are left in the heap, earliest on top.
  SimTime latest = now_;
  while (!mark_heap_.empty() && mark_heap_.front().time <= bound) {
    latest = mark_heap_.front().time;
    std::pop_heap(mark_heap_.begin(), mark_heap_.end(), after);
    mark_heap_.pop_back();
  }
  set_clock(latest);
}

}  // namespace xgbe::sim
