// Discrete-event simulation driver.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

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
/// reference to; it owns nothing but the clock, the event set and the
/// pending clock marks (see mark()).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `cb` to run `delay` picoseconds from now (>= 0). Like every
  /// scheduling call, it takes the callback by rvalue reference: a callback
  /// built at the call site moves once, into its queue slot.
  EventId schedule(SimTime delay, EventQueue::Callback&& cb) {
    return queue_.schedule(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// Schedules `cb` at absolute time `at` (clamped to `now()`).
  EventId schedule_at(SimTime at, EventQueue::Callback&& cb) {
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
                            EventQueue::Callback&& cb) {
    return queue_.schedule(at < now_ ? now_ : at, seq, std::move(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// A clock mark: the time and the tie-break sequence of the empty event
  /// it stands for.
  struct Mark {
    SimTime time = 0;
    std::uint64_t seq = 0;
  };

  /// Marks time `at` (clamped to `now()`) as reached by the model without
  /// scheduling anything, and returns the mark: a job nobody waits on still
  /// moves the clock. The mark reserves its sequence (reserve_seq()). The
  /// clock at every run return and TimeHook firing, has_pending() and
  /// next_event_time() behave exactly as if an empty event had been
  /// scheduled at `at` right now, but a mark runs nothing, cannot be
  /// cancelled, and counts in neither executed_events() nor
  /// pending_events(). reached() says when that event would have run;
  /// schedule_reserved(m.time, m.seq, cb) runs `cb` exactly there.
  Mark mark(SimTime at) {
    const Mark m{at < now_ ? now_ : at, queue_.reserve_seq()};
    if (before(last_mark_, m)) last_mark_ = m;
    marks_.push_back(m);
    if (marks_.size() >= compact_at_) compact_marks();
    return m;
  }

  /// True once an event at `m`'s (time, seq) would have run: the clock has
  /// passed it, or the event running now is that one or a later one. The
  /// clock never runs backwards, so once true it stays true; a component
  /// can hold marks and count lazily what they complete.
  bool reached(const Mark& m) const { return !live(m); }

  /// Runs until the event set drains or stop() is called.
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  /// Runs until `horizon` (inclusive for events at exactly `horizon`),
  /// the event set drains, or stop() is called. The clock advances to the
  /// last executed event, never past `horizon`, and never moves back: a
  /// horizon behind the clock runs nothing and leaves it alone.
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

  /// True while events or clock marks remain pending.
  bool has_pending() const { return !queue_.empty() || live(last_mark_); }

  /// Earliest pending event or clock mark time, or SimTime max when both
  /// are drained. The sharded engine polls this across shards to pick the
  /// next window.
  SimTime next_event_time() const {
    const SimTime next = queue_.empty() ? kNever : queue_.next_time();
    if (!live(last_mark_)) return next;
    const SimTime next_mark = first_live_mark();
    return next_mark < next ? next_mark : next;
  }

  /// Arms a boundary hook (null disarms). The hook fires between events —
  /// it is NOT an event, so executed_events() and the whole schedule stay
  /// bit-identical to an unarmed run. In sharded mode install the hook on
  /// the engine (ShardedEngine::set_time_hook), not on a shard.
  void set_time_hook(TimeHook* hook) { hook_ = hook; }
  TimeHook* time_hook() const { return hook_; }

 private:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  static bool before(const Mark& a, const Mark& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }
  /// Orders before every mark; last_mark_ while none was taken.
  static constexpr Mark kNoMark{std::numeric_limits<SimTime>::min(), 0};
  /// Heap order: the earliest mark on top.
  static bool after(const Mark& a, const Mark& b) { return before(b, a); }

  /// A mark is pending until the clock passes it in (time, seq) order:
  /// (now_, last_seq_) is the last event run or, after the clock moved
  /// without one (set_clock), a sequence reserved then, so every mark taken
  /// until then is passed.
  bool live(const Mark& m) const {
    return m.time > now_ || (m.time == now_ && m.seq > last_seq_);
  }

  /// Earliest pending mark's time; a mark must be pending. Folds the new
  /// marks into the heap and drops the passed ones from its top.
  SimTime first_live_mark() const;
  /// Drops the passed marks from the unsorted ones.
  void compact_marks();
  /// Moves the clock forward to `t` without an event: every mark at or
  /// before `t` counts as run.
  void set_clock(SimTime t) {
    assert(t >= now_);
    now_ = t;
    // Every mark taken so far has a sequence at or below this one.
    last_seq_ = queue_.reserve_seq();
  }
  /// Runs the marks at or before `bound` as their empty events would: the
  /// clock moves to the latest of them.
  void run_marks_through(SimTime bound);
  /// Fires the hook's boundaries before the next event (at `next`) and at
  /// or before `horizon`, running the marks at or before each boundary
  /// first. Returns false, the boundary unfired, when those marks were the
  /// last pending work: the run then ends as drained.
  bool fire_hooks_before(SimTime next, SimTime horizon);

  static constexpr std::size_t kCompactFloor = 64;

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t last_seq_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  TimeHook* hook_ = nullptr;
  // Pending clock marks. New ones are appended unsorted and passed ones
  // stay until the vector reaches compact_at_, so marks cost no work per
  // executed event. Only an observer of the earliest pending mark
  // (next_event_time(), once per sharded window; a hook boundary) folds
  // them into the min-heap, whose top it clears of passed marks: O(log n)
  // per mark however many are pending. last_mark_, the latest mark taken,
  // says whether any is pending and where a drain leaves the clock.
  // Mutable: observing folds.
  mutable std::vector<Mark> marks_;
  mutable std::vector<Mark> mark_heap_;
  std::size_t compact_at_ = kCompactFloor;
  Mark last_mark_ = kNoMark;
};

}  // namespace xgbe::sim
