// Discrete-event simulation driver.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// Boundary-driven observation hook (e.g. obs::MetricScraper): fires at
/// fixed sim-time boundaries WITHOUT scheduling events, so arming one
/// perturbs nothing — executed-event counts and all simulation state stay
/// bit-identical to an unarmed run.
///
/// Contract: due() names the next boundary the hook wants to observe;
/// advance(at) is called with `at == due()` once every event at or before
/// that boundary has executed (the classic simulator fires between events;
/// the sharded engine fires at lookahead barriers, where the whole fabric
/// is quiescent). advance() must strictly increase due() and must not
/// schedule, cancel, or otherwise mutate simulation state — read-only
/// probes only.
class TimeHook {
 public:
  virtual ~TimeHook() = default;
  /// Next boundary this hook wants to observe.
  virtual SimTime due() const = 0;
  /// Observes boundary `at` (== due()). Must strictly increase due().
  virtual void advance(SimTime at) = 0;
};

/// Single-threaded deterministic discrete-event simulator.
///
/// Components schedule callbacks; run() executes them in (time, schedule
/// order) until the pending set drains, a stop is requested, or a horizon is
/// reached. A Simulator is the root object every model component holds a
/// reference to; it owns nothing but the clock and the event set.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `cb` to run `delay` picoseconds from now (>= 0).
  EventId schedule(SimTime delay, EventQueue::Callback cb) {
    return queue_.schedule(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// Schedules `cb` at absolute time `at` (clamped to `now()`).
  EventId schedule_at(SimTime at, EventQueue::Callback cb) {
    return queue_.schedule(at < now_ ? now_ : at, std::move(cb));
  }

  /// Takes the tie-break sequence an event scheduled right now would get,
  /// without scheduling one. A later schedule_reserved() with it orders the
  /// event exactly as if it had been scheduled at reservation time.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Schedules `cb` at absolute time `at` (clamped to `now()`) with a
  /// sequence from reserve_seq(). Each reserved sequence is used at most
  /// once.
  EventId schedule_reserved(SimTime at, std::uint64_t seq,
                            EventQueue::Callback cb) {
    return queue_.schedule(at < now_ ? now_ : at, seq, std::move(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the event set drains or stop() is called.
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  /// Runs until `horizon` (inclusive for events at exactly `horizon`),
  /// the event set drains, or stop() is called. The clock advances to the
  /// last executed event, never past `horizon`.
  void run_until(SimTime horizon);

  /// Requests that run() return after the current event completes.
  void stop() { stopped_ = true; }

  bool stopped() const { return stopped_; }

  /// Number of events executed so far (diagnostic / test hook).
  std::uint64_t executed_events() const { return executed_; }

  /// Scheduled callbacks that took InlineCallback's heap fallback (too
  /// large, or not nothrow-movable), each of which allocated.
  /// Deterministic; tests pin the hot paths at 0.
  std::uint64_t heap_fallbacks() const { return queue_.heap_fallbacks(); }

  /// Counts `cb` in heap_fallbacks() if it allocated. For components that
  /// hold a callback until its event is scheduled (a Resource's queued
  /// jobs), so it counts as if it had been scheduled at once.
  void count_heap_fallback(const InlineCallback& cb) {
    queue_.count_heap_fallback(cb);
  }

  /// Events in the pending set right now. Work queued behind a single
  /// pending event (a Resource's jobs, a Link's frames on the wire) counts
  /// once. Deterministic, so tests can bound the heap.
  std::size_t pending_events() const { return queue_.size(); }

  /// True while events remain scheduled.
  bool has_pending() const { return !queue_.empty(); }

  /// Earliest pending event time, or SimTime max when the set is drained.
  /// The sharded engine polls this across shards to pick the next window.
  SimTime next_event_time() const {
    return queue_.empty() ? std::numeric_limits<SimTime>::max()
                          : queue_.next_time();
  }

  /// Arms a boundary hook (null disarms). The hook fires between events —
  /// it is NOT an event, so executed_events() and the whole schedule stay
  /// bit-identical to an unarmed run. In sharded mode install the hook on
  /// the engine (ShardedEngine::set_time_hook), not on a shard.
  void set_time_hook(TimeHook* hook) { hook_ = hook; }
  TimeHook* time_hook() const { return hook_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  TimeHook* hook_ = nullptr;
};

}  // namespace xgbe::sim
