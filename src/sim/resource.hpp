// Serialized service resources (buses, CPUs, wires).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/block_fifo.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// A FIFO server that processes one request at a time.
///
/// Models any serialized shared resource on the data path: a PCI-X bus, a
/// memory bus, a CPU, the serialization side of a link. Work submitted while
/// the resource is busy queues behind it (work-conserving, non-preemptive).
/// Busy time is accumulated so callers can report utilization — this is how
/// the /proc/loadavg observations in the paper are reproduced.
///
/// A job without a continuation ends in a clock mark (Simulator::mark at
/// its finish time): it keeps its busy time, and the clock reaches its
/// finish exactly as if an empty event sat there, but it is no event and
/// takes no FIFO slot. submit_mark() hands the mark back, so a caller that
/// counts what such jobs complete (a Link's backlog) can ask
/// Simulator::reached() instead of waiting on an event. Every job with a
/// continuation completes in its own event. One that finds the resource
/// idle is scheduled at once. One that arrives while the resource is busy
/// waits in a FIFO with the tie-break sequence it reserved at submit(), and
/// only the FIFO's head has an event in the simulator's pending set. Finish
/// times never decrease (a job starts at max(busy_until, now)), so
/// scheduling each head when its predecessor completes pops the jobs in
/// exactly the (time, seq) order one event per job would give, and the
/// event heap no longer grows with the queue. The FIFO is allocated when a job first has to wait, so a resource
/// that never queues allocates nothing. Destroying a Resource cancels its
/// pending head and drops the queued jobs uncalled; the marks of its jobs
/// without a continuation stay pending.
class Resource {
 public:
  Resource(Simulator& simulator, std::string name)
      : sim_(simulator), name_(std::move(name)) {}
  ~Resource();

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Enqueues a job of length `cost` that nobody waits on (a clock mark)
  /// and returns its completion time.
  SimTime submit(SimTime cost) { return submit_mark(cost).time; }

  /// Enqueues a job of length `cost` whose continuation `done` fires at its
  /// completion, and returns the completion time. Takes `done` by rvalue
  /// reference, like Simulator's scheduling calls, so a continuation built
  /// at the call site is not moved through a by-value parameter on its way
  /// to the event set or the FIFO. An empty `done` makes this
  /// submit(cost). `done` may submit to this Resource again.
  SimTime submit(SimTime cost, InlineCallback&& done);

  /// Enqueues a job of length `cost` that nobody waits on, and returns the
  /// clock mark its completion takes.
  Simulator::Mark submit_mark(SimTime cost);

  /// Earliest time a newly submitted job would start.
  SimTime available_at() const {
    return busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  }

  /// The completion time submit(cost) would return if called now.
  SimTime finish_if_submitted(SimTime cost) const {
    return available_at() + (cost < 0 ? 0 : cost);
  }

  /// True if a job submitted now would start immediately.
  bool idle() const { return busy_until_ <= sim_.now(); }

  /// Total busy time accumulated since construction (or last reset).
  SimTime busy_time() const { return busy_accum_; }

  /// Fraction of the window [window_start, now] this resource was busy.
  /// Uses the busy-time snapshot taken by mark_window().
  double utilization() const;

  /// Starts a fresh utilization window at the current time.
  void mark_window();

  const std::string& name() const { return name_; }

  std::uint64_t jobs_completed() const { return jobs_; }

 private:
  /// A queued job: when it completes, the tie-break sequence reserved when
  /// it was submitted, and its continuation.
  struct Job {
    SimTime finish = 0;
    std::uint64_t seq = 0;
    InlineCallback done;
  };

  /// Jobs that arrived while the resource was busy, and the front one's
  /// event. Most resources never queue, and a set-up builds hundreds of
  /// them, so this stays out of line until first needed.
  struct Queue {
    BlockFifo<Job> jobs;
    EventId head_event;
  };

  /// Books a job of length `cost` (negative counts as 0) behind the busy
  /// period and returns its finish time.
  SimTime book(SimTime cost);
  /// Schedules the completion event of the queue's front job.
  void schedule_head();
  /// The head's event: pops the job, schedules the next head, then runs the
  /// popped job's continuation.
  void complete();

  Simulator& sim_;
  std::string name_;
  std::unique_ptr<Queue> queue_;
  SimTime busy_until_ = 0;
  SimTime busy_accum_ = 0;
  SimTime window_start_ = 0;
  SimTime window_busy_base_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace xgbe::sim
