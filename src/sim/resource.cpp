#include "sim/resource.hpp"

#include <cassert>

namespace xgbe::sim {

Resource::~Resource() {
  // The head's event captures this Resource.
  if (queue_ && !queue_->jobs.empty()) sim_.cancel(queue_->head_event);
}

SimTime Resource::book(SimTime cost) {
  if (cost < 0) cost = 0;
  const SimTime finish = finish_if_submitted(cost);
  busy_until_ = finish;
  busy_accum_ += cost;
  ++jobs_;
  return finish;
}

Simulator::Mark Resource::submit_mark(SimTime cost) {
  // Nobody waits on this job: it needs its busy time and the clock's
  // reach, not an event.
  return sim_.mark(book(cost));
}

SimTime Resource::submit(SimTime cost, InlineCallback done) {
  if (!done) return submit_mark(cost).time;
  const bool waits = !idle();
  const SimTime finish = book(cost);
  if (!waits) {
    // Nothing to wait behind: the completion is the job's own event. Jobs
    // still queued here all finish by now, so they pop first either way.
    sim_.schedule_at(finish, std::move(done));
    return finish;
  }
  // The job waits here instead of in the event set, so count an allocating
  // callback as if it had been scheduled directly.
  sim_.count_heap_fallback(done);
  // Reserved now, where the job's own event would have been scheduled.
  const std::uint64_t seq = sim_.reserve_seq();
  if (!queue_) queue_ = std::make_unique<Queue>();
  const bool was_empty = queue_->jobs.empty();
  assert(done);  // complete() calls every queued continuation
  queue_->jobs.push_back(Job{finish, seq, std::move(done)});
  if (was_empty) schedule_head();
  return finish;
}

void Resource::schedule_head() {
  const Job& head = queue_->jobs.front();
  queue_->head_event =
      sim_.schedule_reserved(head.finish, head.seq, [this] { complete(); });
}

void Resource::complete() {
  // Advance before running: the continuation may submit here again, and
  // must find the next head already scheduled (or the queue empty).
  InlineCallback done = std::move(queue_->jobs.front().done);
  queue_->jobs.pop_front();
  if (!queue_->jobs.empty()) schedule_head();
  done();
}

double Resource::utilization() const {
  // Busy time can extend past `now` (queued work); clamp the numerator so a
  // saturated resource reports 1.0 rather than >1.
  const SimTime window = sim_.now() - window_start_;
  if (window <= 0) return 0.0;
  SimTime busy = busy_accum_ - window_busy_base_;
  // Subtract the portion of accumulated busy time scheduled beyond `now`.
  if (busy_until_ > sim_.now()) busy -= (busy_until_ - sim_.now());
  if (busy < 0) busy = 0;
  if (busy > window) busy = window;
  return static_cast<double>(busy) / static_cast<double>(window);
}

void Resource::mark_window() {
  window_start_ = sim_.now();
  window_busy_base_ = busy_accum_;
  if (busy_until_ > sim_.now()) {
    // Work already queued past `now` belongs to the new window.
    window_busy_base_ -= (busy_until_ - sim_.now());
  }
}

}  // namespace xgbe::sim
