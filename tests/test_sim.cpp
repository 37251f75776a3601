// Unit tests for the simulation core: event queue, simulator, resources,
// RNG, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {
namespace {

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(usec(1), 1'000'000);
  EXPECT_EQ(msec(1), 1000 * usec(1));
  EXPECT_EQ(sec(1), 1000 * msec(1));
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_microseconds(usec(7)), 7.0);
  EXPECT_EQ(from_seconds(2.5), sec(2) + msec(500));
}

TEST(TimeUnits, TransferTimeExactAt10G) {
  // One byte at 10 Gb/s is exactly 800 ps.
  EXPECT_EQ(transfer_time(1, 10e9), 800);
  EXPECT_EQ(transfer_time(1500, 10e9), 1500 * 800);
}

TEST(TimeUnits, TransferTimeRoundsUp) {
  // 1 byte at 3 Gb/s = 2666.67 ps -> 2667.
  EXPECT_EQ(transfer_time(1, 3e9), 2667);
}

TEST(TimeUnits, RateComputation) {
  EXPECT_DOUBLE_EQ(rate_bps(1250, usec(1)), 10e9);
  EXPECT_DOUBLE_EQ(rate_bps(100, 0), 0.0);
}

TEST(InlineCallback, InvokesAndReportsEmpty) {
  InlineCallback empty;
  EXPECT_FALSE(empty);
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  EXPECT_TRUE(cb);
  cb();
  cb();
  EXPECT_EQ(hits, 2);
  cb = nullptr;
  EXPECT_FALSE(cb);
}

TEST(InlineCallback, HotPathCaptureSetsStayInline) {
  // The capture sets the simulator schedules millions of times: a timer
  // lambda (`this`), completion continuations holding 1-2 shared_ptrs, and
  // per-frame events carrying their frame by value — a component pointer
  // plus the frame (host emit, NIC DMA, kernel rx, link delivery), and the
  // switch's fabric crossing, which adds the egress port. These must never
  // hit the allocator: a Packet that grows fails the build here.
  struct Dummy {
    void fire() {}
  } d;
  auto timer = [&d] { d.fire(); };
  static_assert(InlineCallback::fits_inline<decltype(timer)>());
  auto sp1 = std::make_shared<int>(0);
  auto sp2 = std::make_shared<int>(0);
  auto continuation = [sp1, sp2] { ++*sp1; };
  static_assert(InlineCallback::fits_inline<decltype(continuation)>());
  auto three = [sp1, sp2, i = std::size_t{0}]() mutable { *sp2 += (int)i++; };
  static_assert(InlineCallback::fits_inline<decltype(three)>());
  Dummy* self = &d;
  const net::Packet frame{};
  auto carry = [self, frame] { self->fire(); };
  static_assert(InlineCallback::fits_inline<decltype(carry)>());
  const int port = 3;
  auto cross = [self, port, frame] { self->fire(); };
  static_assert(InlineCallback::fits_inline<decltype(cross)>());
}

TEST(InlineCallback, ConstCaptureOfThrowingCopyTakesTheHeapPath) {
  // Copy-capturing a const object makes a const member, which moves by
  // copy — and this type's copy is not noexcept, so the lambda is not
  // nothrow-movable and allocates despite its 8-byte size. An init-capture
  // deduces a non-const member and stays inline.
  struct Counter {
    explicit Counter(int* target) : hits(target) {}
    Counter(const Counter& other) : hits(other.hits) {}
    Counter(Counter&&) noexcept = default;
    int* hits;
  };
  int hits = 0;
  const Counter handle(&hits);
  auto by_const = [handle] { ++*handle.hits; };
  static_assert(sizeof(by_const) <= InlineCallback::kInlineBytes);
  static_assert(!InlineCallback::fits_inline<decltype(by_const)>());
  EXPECT_TRUE(InlineCallback(by_const).on_heap());
  auto by_value = [h = handle] { ++*h.hits; };
  static_assert(InlineCallback::fits_inline<decltype(by_value)>());
  InlineCallback inline_cb(by_value);
  EXPECT_FALSE(inline_cb.on_heap());
  inline_cb();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineCallback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  InlineCallback b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(*counter, 1);
  b = nullptr;
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed exactly once
}

TEST(InlineCallback, OversizedCapturesFallBackToHeap) {
  struct Big {
    char bytes[200];
  };
  Big big{};
  big.bytes[199] = 42;
  int seen = 0;
  auto fat = [big, &seen] { seen = big.bytes[199]; };
  static_assert(!InlineCallback::fits_inline<decltype(fat)>());
  InlineCallback cb(std::move(fat));
  InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallback, HoldsMoveOnlyCaptures) {
  // std::function cannot hold this; a continuation owning another callback
  // is exactly the link-layer tx_done pattern.
  auto flag = std::make_shared<bool>(false);
  InlineCallback inner([flag] { *flag = true; });
  InlineCallback outer([inner = std::move(inner)]() mutable { inner(); });
  outer();
  EXPECT_TRUE(*flag);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(300, [&] { order.push_back(3); });
  q.schedule(100, [&] { order.push_back(1); });
  q.schedule(200, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  int fired = 0;
  auto id = q.schedule(100, [&] { ++fired; });
  q.schedule(200, [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DoubleCancelHarmless) {
  EventQueue q;
  auto id = q.schedule(100, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  int fired = 0;
  auto id = q.schedule(100, [&] { ++fired; });
  q.schedule(200, [&] { ++fired; });
  q.pop().cb();   // fires the id=100 event
  q.cancel(id);   // stale handle: must not disturb the live event
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandleReuseDoesNotAliasStaleIds) {
  EventQueue q;
  int fired = 0;
  auto stale = q.schedule(100, [&] { fired += 1; });
  q.cancel(stale);
  // The freed handle slot is reused by the next schedule; the stale id must
  // not be able to cancel the new event.
  auto fresh = q.schedule(200, [&] { fired += 10; });
  q.cancel(stale);
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 10);
  (void)fresh;
}

// Retransmit-timer churn: nearly every scheduled event is cancelled before
// it fires (the TCP endpoint's RTO/delayed-ACK pattern). Ordering and the
// live count must survive thousands of interleaved cancels.
TEST(EventQueue, CancelChurn) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    ids.push_back(q.schedule(10 * (i + 1), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) q.cancel(ids[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(q.size(), static_cast<size_t>(n) / 2);
  SimTime last = 0;
  while (!q.empty()) {
    SimTime t = q.next_time();
    EXPECT_GE(t, last);
    last = t;
    q.pop().cb();
  }
  ASSERT_EQ(fired.size(), static_cast<size_t>(n) / 2);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
  }
}

TEST(Simulator, AdvancesClockMonotonically) {
  Simulator s;
  std::vector<SimTime> times;
  s.schedule(usec(5), [&] { times.push_back(s.now()); });
  s.schedule(usec(1), [&] {
    times.push_back(s.now());
    s.schedule(usec(1), [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], usec(1));
  EXPECT_EQ(times[1], usec(2));
  EXPECT_EQ(times[2], usec(5));
}

TEST(Simulator, RunUntilHorizonStopsClock) {
  Simulator s;
  int fired = 0;
  s.schedule(usec(10), [&] { ++fired; });
  s.run_until(usec(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.now(), usec(5));
  s.run_until(usec(20));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, HorizonBehindTheClockLeavesItAlone) {
  // Stamps held outside the Simulator (a Mark's reached()) need a clock
  // that never runs backwards, pending events or not.
  Simulator s;
  int fired = 0;
  s.schedule_at(100, [&] { ++fired; });
  s.schedule_at(200, [&] { ++fired; });
  s.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 150);
  s.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 150);
  const Simulator::Mark at_clock = s.mark(150);
  EXPECT_FALSE(s.reached(at_clock));
  s.run_until(120);
  EXPECT_EQ(s.now(), 150);
  EXPECT_FALSE(s.reached(at_clock));  // not passed by a horizon behind it
  s.run_until(150);
  EXPECT_TRUE(s.reached(at_clock));
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 200);
}

TEST(Simulator, StopHaltsExecution) {
  Simulator s;
  int fired = 0;
  s.schedule(1, [&] {
    ++fired;
    s.stop();
  });
  s.schedule(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsHeapFallbackCallbacks) {
  Simulator s;
  struct Big {
    char bytes[200];
  };
  const Big big{};
  int hits = 0;
  s.schedule(1, [&hits] { ++hits; });
  EXPECT_EQ(s.heap_fallbacks(), 0u);
  s.schedule(2, [big, &hits] { hits += 1 + big.bytes[0]; });
  EXPECT_EQ(s.heap_fallbacks(), 1u);
  s.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(s.heap_fallbacks(), 1u);  // counts schedules, not live events
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  SimTime when = -1;
  s.schedule(usec(1), [&] {
    s.schedule(-100, [&] { when = s.now(); });
  });
  s.run();
  EXPECT_EQ(when, usec(1));
}

TEST(Resource, SerializesJobs) {
  Simulator s;
  Resource r(s, "bus");
  std::vector<SimTime> completions;
  r.submit(usec(10), [&] { completions.push_back(s.now()); });
  r.submit(usec(5), [&] { completions.push_back(s.now()); });
  s.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], usec(10));
  EXPECT_EQ(completions[1], usec(15));
}

TEST(Resource, IdleGapsDoNotAccumulate) {
  Simulator s;
  Resource r(s, "bus");
  r.submit(usec(10));
  s.run();
  // Schedule a new job after an idle gap.
  s.schedule(usec(90), [&] { r.submit(usec(10)); });
  s.run();
  EXPECT_EQ(r.busy_time(), usec(20));
  EXPECT_EQ(s.now(), usec(110));
}

TEST(Resource, UtilizationWindow) {
  Simulator s;
  Resource r(s, "cpu");
  r.mark_window();
  r.submit(usec(30));
  s.schedule(usec(100), [] {});
  s.run();
  EXPECT_NEAR(r.utilization(), 0.3, 1e-9);
  r.mark_window();
  s.schedule(usec(100), [] {});
  s.run();
  EXPECT_NEAR(r.utilization(), 0.0, 1e-9);
}

TEST(Resource, SaturatedUtilizationCapsAtOne) {
  Simulator s;
  Resource r(s, "cpu");
  r.mark_window();
  for (int i = 0; i < 100; ++i) r.submit(usec(10));
  s.schedule(usec(50), [&] { s.stop(); });
  s.run();
  EXPECT_LE(r.utilization(), 1.0);
  EXPECT_GT(r.utilization(), 0.99);
}

TEST(Resource, QueuedJobsShareOnePendingEvent) {
  Simulator s;
  Resource r(s, "cpu");
  int done = 0;
  for (int i = 0; i < 1000; ++i) r.submit(usec(1), [&done] { ++done; });
  r.submit(usec(1));
  // The first job found the Resource idle and has its own event; the other
  // 999 with a callback wait behind it, and only the first of those has an
  // event. The callback-less job is a clock mark, not an event.
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_EQ(s.next_event_time(), usec(1));
  s.run();
  EXPECT_EQ(done, 1000);
  // One executed event per job with a callback; the mark still takes the
  // clock to the callback-less job's finish.
  EXPECT_EQ(s.executed_events(), 1000u);
  EXPECT_EQ(s.now(), usec(1001));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.has_pending());
}

TEST(Resource, DestroyedWithPendingJobsCancelsItsEvent) {
  Simulator s;
  auto token = std::make_shared<int>(0);
  int fired = 0;
  auto r = std::make_unique<Resource>(s, "bus");
  r->submit(usec(1), [&fired] { ++fired; });
  r->submit(usec(1), [&fired, token] { ++fired; });
  r->submit(usec(1));
  s.schedule(usec(5), [] {});
  s.run_until(usec(1));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 2u);  // the Resource's head + the plain one
  EXPECT_EQ(token.use_count(), 2);
  r.reset();
  EXPECT_EQ(token.use_count(), 1);    // queued captures are released
  EXPECT_EQ(s.pending_events(), 1u);  // and the head event is cancelled
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), usec(5));
}

TEST(Resource, CountsHeapFallbacksOfQueuedJobs) {
  Simulator s;
  Resource r(s, "cpu");
  struct Big {
    char bytes[200];
  };
  const Big big{};
  int hits = 0;
  r.submit(usec(1), [&hits] { ++hits; });
  EXPECT_EQ(s.heap_fallbacks(), 0u);
  // Waits in the Resource's queue, behind the head: never scheduled
  // directly, still counted.
  r.submit(usec(1), [big, &hits] { hits += 1 + big.bytes[0]; });
  EXPECT_EQ(s.heap_fallbacks(), 1u);
  s.run();
  // Submitted to an idle Resource: scheduled as its own event at once.
  r.submit(usec(1), [big, &hits] { hits += 1 + big.bytes[0]; });
  EXPECT_EQ(s.heap_fallbacks(), 2u);
  s.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(s.heap_fallbacks(), 2u);
}

// Reference model: every job is its own pending event, however many jobs
// wait behind it, a callback-less one included (as an empty event).
class OneEventPerJobResource {
 public:
  OneEventPerJobResource(Simulator& simulator, const std::string& /*name*/)
      : sim_(simulator) {}
  SimTime submit(SimTime cost, InlineCallback done = nullptr) {
    if (cost < 0) cost = 0;
    const SimTime start = busy_until_ > sim_.now() ? busy_until_ : sim_.now();
    busy_until_ = start + cost;
    if (!done) ++bare_jobs;
    sim_.schedule_at(busy_until_, std::move(done));
    return busy_until_;
  }

  /// Jobs submitted without a callback.
  std::uint64_t bare_jobs = 0;

 private:
  Simulator& sim_;
  SimTime busy_until_ = 0;
};

// A seeded random workload on three resources: jobs (a third of them
// zero-cost, some without a callback), completions that submit again to
// the same resource, plain events and cancels. Costs and delays are a few
// picoseconds, so equal timestamps are common. Every callback logs its time
// and tag and draws the next actions from one RNG, so any difference in
// execution order shows in the log.
template <typename R>
struct ResourceWorkload {
  explicit ResourceWorkload(std::uint64_t seed) : rng(seed) {
    for (int i = 0; i < 3; ++i) {
      res.push_back(std::make_unique<R>(sim, "r" + std::to_string(i)));
    }
    for (int i = 0; i < 40; ++i) step();
    sim.run();
  }

  void step() {
    if (budget == 0) return;
    --budget;
    const std::uint64_t action = rng.next_below(8);
    if (action < 4) {
      submit(rng.next_below(res.size()));
    } else if (action < 7) {
      plain();
    } else if (!plain_ids.empty()) {
      sim.cancel(plain_ids[rng.next_below(plain_ids.size())]);
    }
  }

  void submit(std::size_t r) {
    const SimTime cost =
        rng.chance(0.3) ? 0 : static_cast<SimTime>(rng.next_below(5));
    if (rng.chance(0.2)) {
      res[r]->submit(cost);
      return;
    }
    const std::uint64_t tag = next_tag++;
    res[r]->submit(cost, [this, r, tag] {
      log.emplace_back(sim.now(), tag);
      if (budget > 0 && rng.chance(0.4)) {
        --budget;
        submit(r);  // back into the Resource that is completing
      }
      step();
    });
  }

  void plain() {
    const std::uint64_t tag = next_tag++;
    plain_ids.push_back(
        sim.schedule(static_cast<SimTime>(rng.next_below(8)), [this, tag] {
          log.emplace_back(sim.now(), tag);
          step();
          step();
        }));
  }

  Simulator sim;
  std::vector<std::unique_ptr<R>> res;
  Rng rng;
  std::vector<std::pair<SimTime, std::uint64_t>> log;
  std::vector<EventId> plain_ids;
  std::uint64_t next_tag = 0;
  int budget = 20000;
};

class ResourceFifo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResourceFifo, MatchesOneEventPerJob) {
  const ResourceWorkload<Resource> fifo(GetParam());
  const ResourceWorkload<OneEventPerJobResource> reference(GetParam());
  EXPECT_EQ(fifo.budget, 0);  // the workload ran to its full size
  ASSERT_GT(reference.log.size(), 10000u);
  std::size_t ties = 0;
  for (std::size_t i = 1; i < reference.log.size(); ++i) {
    if (reference.log[i].first == reference.log[i - 1].first) ++ties;
  }
  EXPECT_GT(ties, reference.log.size() / 4);
  EXPECT_EQ(fifo.log, reference.log);
  // One event per job with a callback: the Resource's callback-less jobs
  // are clock marks, which run nothing.
  std::uint64_t bare_jobs = 0;
  for (const auto& r : reference.res) bare_jobs += r->bare_jobs;
  EXPECT_GT(bare_jobs, 1000u);
  EXPECT_EQ(fifo.sim.executed_events(),
            reference.sim.executed_events() - bare_jobs);
  EXPECT_EQ(fifo.sim.now(), reference.sim.now());
  EXPECT_EQ(fifo.sim.heap_fallbacks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceFifo,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------------------------------------------------------------------------
// Clock marks in lockstep with empty events
//
// Simulator::mark must be indistinguishable from an empty event scheduled at
// the same time: the clock at every hook boundary and run return,
// has_pending() and next_event_time(). The sharded engine opens each window
// at the earliest pending time, so a mark seen late or not at all moves the
// window sequence.

/// Logs each boundary it observes with the clocks it watches at that moment.
class ClockLog : public TimeHook {
 public:
  ClockLog(std::vector<const Simulator*> clocks, SimTime period)
      : clocks_(std::move(clocks)), period_(period), due_(period) {}

  SimTime due() const override { return due_; }
  void advance(SimTime at) override {
    log.push_back(at);
    for (const Simulator* clock : clocks_) log.push_back(clock->now());
    if (on_advance) on_advance();
    due_ = at + period_;
  }

  std::vector<SimTime> log;
  /// Runs at every firing, after the clocks are logged.
  std::function<void()> on_advance;

 private:
  std::vector<const Simulator*> clocks_;
  SimTime period_;
  SimTime due_;
};

/// A seeded random program on one Simulator. Every job nobody waits on is
/// a clock mark, or, in the reference, an empty event at the same time
/// that records it ran. Plain events log (time, tag), sometimes stop the
/// run, and draw further actions from the program's own RNG, so any
/// difference in what ran, or in what order, shows in the log. Delays are
/// a few picoseconds, so equal timestamps are common. A wake puts a
/// logging event at a kept mark (schedule_reserved); in the reference the
/// mark's own empty event logs instead. At every logging callback, and
/// whenever observe() is called, the program logs which marks are not
/// reached yet: Simulator::reached() here, the empty event's record in the
/// reference.
class MarkProgram {
 public:
  MarkProgram(Simulator& simulator, std::uint64_t seed, bool use_marks)
      : sim_(simulator), rng_(seed), use_marks_(use_marks) {}

  /// One action at the current time: a mark, a plain event, a cancel or a
  /// wake.
  void act() {
    const std::uint64_t action = rng_.next_below(10);
    if (action < 4) {
      mark(sim_.now() + delay());
    } else if (action < 8) {
      plain();
    } else if (action == 8) {
      wake();
    } else if (!plain_ids_.empty()) {
      sim_.cancel(plain_ids_[rng_.next_below(plain_ids_.size())]);
    }
  }

  /// A mark (or, in the reference, an empty event) at absolute time `at`.
  void mark(SimTime at) {
    const std::size_t i = marked.size();
    marked.push_back(at);
    ran_.push_back(false);
    wake_tag_.push_back(kNoWake);
    open_.push_back(i);
    if (use_marks_) {
      kept_.push_back(sim_.mark(at));
    } else {
      sim_.schedule_at(at, [this, i] {
        ran_[i] = true;
        if (wake_tag_[i] != kNoWake) logged(wake_tag_[i]);
      });
    }
  }

  /// Whether mark `i` is reached: reached() on the kept mark, or whether
  /// the reference's empty event ran.
  bool reached(std::size_t i) const {
    return use_marks_ ? sim_.reached(kept_[i]) : ran_[i] != 0;
  }

  /// Logs the marks not reached yet, then stops watching the reached ones.
  void observe() {
    std::size_t still = 0;
    for (std::size_t i : open_) {
      if (reached(i)) continue;
      open_[still++] = i;
      reach_log.push_back(i);
    }
    open_.resize(still);
    reach_log.push_back(kObserved);
  }

  std::vector<std::pair<SimTime, std::uint64_t>> log;
  std::vector<SimTime> marked;
  std::vector<std::size_t> reach_log;
  std::size_t wakes = 0;

 private:
  static constexpr std::uint64_t kNoWake = ~std::uint64_t{0};
  static constexpr std::size_t kObserved = ~std::size_t{0};

  void logged(std::uint64_t tag) {
    log.emplace_back(sim_.now(), tag);
    observe();
  }

  /// A logging event at a mark not reached and not woken yet (each
  /// reserved sequence is used once).
  void wake() {
    std::vector<std::size_t> candidates;
    for (std::size_t i : open_) {
      if (!reached(i) && wake_tag_[i] == kNoWake) candidates.push_back(i);
    }
    if (candidates.empty()) return;
    const std::size_t i = candidates[rng_.next_below(candidates.size())];
    wake_tag_[i] = next_tag_++;
    ++wakes;
    if (use_marks_) {
      sim_.schedule_reserved(kept_[i].time, kept_[i].seq,
                             [this, tag = wake_tag_[i]] { logged(tag); });
    }
  }

  SimTime delay() {
    if (rng_.chance(0.3)) return 0;
    return static_cast<SimTime>(rng_.next_below(rng_.chance(0.1) ? 300 : 12));
  }

  void plain() {
    const std::uint64_t tag = next_tag_++;
    plain_ids_.push_back(sim_.schedule(delay(), [this, tag] {
      logged(tag);
      if (budget_ > 0) {
        --budget_;
        act();
      }
      if (budget_ > 0 && rng_.chance(0.45)) {
        --budget_;
        act();
      }
      if (rng_.chance(0.02)) sim_.stop();
    }));
  }

  Simulator& sim_;
  Rng rng_;
  bool use_marks_;
  std::vector<EventId> plain_ids_;
  std::uint64_t next_tag_ = 0;
  int budget_ = 4000;
  std::vector<Simulator::Mark> kept_;  // use_marks_ only
  std::vector<char> ran_;              // reference only
  std::vector<std::uint64_t> wake_tag_;
  std::vector<std::size_t> open_;  // marks not seen reached yet
};

/// Every mark's reached state agrees between the two programs.
void expect_same_reach(const MarkProgram& marks, const MarkProgram& reference,
                       const std::string& where) {
  ASSERT_EQ(marks.marked.size(), reference.marked.size()) << where;
  for (std::size_t i = 0; i < marks.marked.size(); ++i) {
    ASSERT_EQ(marks.reached(i), reference.reached(i))
        << where << " mark " << i;
  }
}

/// A horizon just before, at or just after a recent mark, or a little past
/// the clock.
SimTime pick_horizon(Rng& choices, const std::vector<SimTime>& marked,
                     SimTime now) {
  if (!marked.empty() && choices.chance(0.7)) {
    const std::size_t back =
        choices.next_below(std::min<std::size_t>(marked.size(), 8));
    return marked[marked.size() - 1 - back] +
           static_cast<SimTime>(choices.next_below(3)) - 1;
  }
  return now + static_cast<SimTime>(choices.next_below(40));
}

struct MarkLockstepCase {
  std::uint64_t seed;
  bool hooked;
};

class ClockMarks : public ::testing::TestWithParam<MarkLockstepCase> {};

TEST_P(ClockMarks, MatchEmptyEventsInLockstep) {
  const MarkLockstepCase param = GetParam();
  struct Side {
    Side(std::uint64_t seed, bool use_marks, bool hooked)
        : program(sim, seed, use_marks), hook({&sim}, 7) {
      hook.on_advance = [this] { program.observe(); };
      if (hooked) sim.set_time_hook(&hook);
    }
    Simulator sim;
    MarkProgram program;
    ClockLog hook;
  };
  Side marks(param.seed, true, param.hooked);
  Side reference(param.seed, false, param.hooked);
  Rng choices(param.seed * 7919 + 17);
  std::size_t drains_on_marks = 0;
  std::size_t stops = 0;
  SimTime last_now = 0;
  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t op = choices.next_below(8);
    if (op < 3) {
      // Actions from outside a run: each program draws the same ones.
      const std::uint64_t n = 1 + choices.next_below(6);
      for (std::uint64_t i = 0; i < n; ++i) {
        marks.program.act();
        reference.program.act();
      }
    } else if (op < 6) {
      const SimTime h =
          pick_horizon(choices, reference.program.marked, reference.sim.now());
      marks.sim.run_until(h);
      reference.sim.run_until(h);
    } else {
      if (op == 7) {
        // Two marks past every delay, so the run() below mostly drains on
        // marks.
        const SimTime far = reference.sim.now() + 400 +
                            static_cast<SimTime>(choices.next_below(50));
        for (SimTime at : {far, far + 3}) {
          marks.program.mark(at);
          reference.program.mark(at);
        }
      }
      marks.sim.run();
      reference.sim.run();
      if (reference.sim.stopped()) {
        ++stops;
      } else if (!reference.program.log.empty() &&
                 reference.sim.now() > reference.program.log.back().first) {
        ++drains_on_marks;
      }
    }
    ASSERT_EQ(marks.sim.now(), reference.sim.now()) << "step " << step;
    ASSERT_EQ(marks.sim.next_event_time(), reference.sim.next_event_time())
        << "step " << step;
    ASSERT_EQ(marks.sim.has_pending(), reference.sim.has_pending())
        << "step " << step;
    ASSERT_EQ(marks.sim.stopped(), reference.sim.stopped()) << "step " << step;
    ASSERT_EQ(marks.program.log, reference.program.log) << "step " << step;
    ASSERT_EQ(marks.hook.log, reference.hook.log) << "step " << step;
    ASSERT_EQ(marks.program.reach_log, reference.program.reach_log)
        << "step " << step;
    expect_same_reach(marks.program, reference.program,
                      "step " + std::to_string(step));
    ASSERT_GE(marks.sim.now(), last_now) << "step " << step;
    last_now = marks.sim.now();
  }
  // The schedule really exercised what it is meant to.
  const auto& log = reference.program.log;
  std::size_t ties = 0;
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i].first == log[i - 1].first) ++ties;
  }
  EXPECT_GT(log.size(), 1000u);
  EXPECT_GT(ties, log.size() / 10);
  EXPECT_GT(reference.program.marked.size(), 1000u);
  EXPECT_GT(reference.program.wakes, 100u);
  EXPECT_GT(drains_on_marks, 100u);
  EXPECT_GT(stops, 10u);
  if (param.hooked) {
    EXPECT_GT(reference.hook.log.size(), 2000u);
  }
  EXPECT_LT(marks.sim.executed_events(), reference.sim.executed_events());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ClockMarks,
    ::testing::Values(MarkLockstepCase{1, false}, MarkLockstepCase{2, false},
                      MarkLockstepCase{3, false}, MarkLockstepCase{1, true},
                      MarkLockstepCase{2, true}, MarkLockstepCase{3, true},
                      MarkLockstepCase{4, true}, MarkLockstepCase{5, true}),
    [](const ::testing::TestParamInfo<MarkLockstepCase>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.hooked ? "_hooked" : "_unhooked");
    });

TEST(ClockMarks, ShardedWindowsMatchEmptyEvents) {
  // Two shards, each its own program; the engine opens every window at the
  // earliest pending time across both, marks included.
  struct Side {
    Side(std::uint64_t seed, bool use_marks)
        : engine(2),
          hook({&engine.shard(0), &engine.shard(1)}, 13) {
      engine.set_lookahead(9);
      engine.set_threads(1);
      engine.set_time_hook(&hook);
      for (std::size_t i = 0; i < 2; ++i) {
        programs.push_back(std::make_unique<MarkProgram>(
            engine.shard(i), seed * 2 + i, use_marks));
      }
      hook.on_advance = [this] {
        for (auto& program : programs) program->observe();
      };
    }
    ShardedEngine engine;
    ClockLog hook;
    std::vector<std::unique_ptr<MarkProgram>> programs;
  };
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Side marks(seed, true);
    Side reference(seed, false);
    Rng choices(seed * 104729 + 3);
    SimTime last_now = 0;
    std::vector<SimTime> last_shard_now(2, 0);
    for (int step = 0; step < 1000; ++step) {
      const std::uint64_t op = choices.next_below(4);
      if (op < 2) {
        const std::size_t shard = choices.next_below(2);
        const std::uint64_t n = 1 + choices.next_below(4);
        for (std::uint64_t i = 0; i < n; ++i) {
          marks.programs[shard]->act();
          reference.programs[shard]->act();
        }
      } else if (op == 2) {
        const SimTime h = reference.engine.now() +
                          static_cast<SimTime>(choices.next_below(60));
        marks.engine.run_until(h);
        reference.engine.run_until(h);
      } else {
        marks.engine.run();
        reference.engine.run();
      }
      ASSERT_EQ(marks.engine.windows(), reference.engine.windows())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(marks.engine.now(), reference.engine.now())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(marks.hook.log, reference.hook.log)
          << "seed " << seed << " step " << step;
      ASSERT_GE(marks.engine.now(), last_now)
          << "seed " << seed << " step " << step;
      last_now = marks.engine.now();
      for (std::size_t i = 0; i < 2; ++i) {
        const std::string where = "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + " shard " +
                                  std::to_string(i);
        ASSERT_EQ(marks.programs[i]->reach_log,
                  reference.programs[i]->reach_log)
            << where;
        expect_same_reach(*marks.programs[i], *reference.programs[i], where);
        ASSERT_GE(marks.engine.shard(i).now(), last_shard_now[i]) << where;
        last_shard_now[i] = marks.engine.shard(i).now();
        ASSERT_EQ(marks.engine.shard(i).now(), reference.engine.shard(i).now())
            << "seed " << seed << " step " << step << " shard " << i;
        ASSERT_EQ(marks.engine.shard(i).next_event_time(),
                  reference.engine.shard(i).next_event_time())
            << "seed " << seed << " step " << step << " shard " << i;
        ASSERT_EQ(marks.programs[i]->log, reference.programs[i]->log)
            << "seed " << seed << " step " << step << " shard " << i;
      }
    }
    EXPECT_GT(reference.engine.windows(), 400u) << "seed " << seed;
    EXPECT_GT(reference.programs[0]->wakes + reference.programs[1]->wakes,
              50u)
        << "seed " << seed;
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.variance(), 6.0, 1e-12);  // sample variance of 1..8
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, QuantilesInterpolate) {
  SampleSet s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to bucket 0
  h.add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_low(5), 5.0);
}

TEST(Histogram, NonFiniteSamplesClampDeterministically) {
  // Casting NaN or an out-of-range double to size_t is UB; these must land
  // in the edge buckets instead.
  Histogram h(0.0, 10.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.bucket_count(0), 2u);  // NaN and -inf clamp low
  EXPECT_EQ(h.bucket_count(3), 1u);  // +inf clamps high
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, ZeroSpanRangeNeverDividesByZero) {
  Histogram h(5.0, 5.0, 3);  // degenerate [5,5): span == 0
  h.add(5.0);
  h.add(4.0);
  h.add(6.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.bucket_count(0), 4u);  // finite samples land in bucket 0
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, ExactUpperEdgeStaysInRange) {
  // x == hi maps to pos == buckets; the cast must clamp, not index
  // one-past-the-end.
  Histogram h(0.0, 10.0, 10);
  h.add(10.0);
  EXPECT_EQ(h.bucket_count(9), 1u);
}

TEST(SampleSet, EmptyAndSingleSample) {
  SampleSet empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.summary().count(), 0u);

  SampleSet one;
  one.add(42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(one.summary().mean(), 42.0);
}

TEST(SampleSet, AllEqualSamples) {
  SampleSet s;
  for (int i = 0; i < 10; ++i) s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.summary().stddev(), 0.0);
}

TEST(SampleSet, SummaryIsIndependentOfQuantileCalls) {
  // summary() accumulates in insertion order; the lazy sorted cache that
  // quantile() builds must never leak into the (order-sensitive) Welford
  // result. Use values whose FP sums differ between orderings.
  SampleSet a, b;
  const std::vector<double> xs = {1e16, 3.14159, -1e16, 2.71828, 1.0, 1e-9};
  for (double x : xs) {
    a.add(x);
    b.add(x);
  }
  (void)b.quantile(0.5);  // sorts b's cache
  const OnlineStats sa = a.summary();
  const OnlineStats sb = b.summary();
  EXPECT_EQ(sa.mean(), sb.mean());
  EXPECT_EQ(sa.variance(), sb.variance());
  // And quantile still answers from sorted data after more adds.
  b.add(-1e20);
  EXPECT_DOUBLE_EQ(b.quantile(0.0), -1e20);
}

TEST(SampleSet, CopyDropsSortCacheButKeepsSamples) {
  SampleSet a;
  a.add(3.0);
  a.add(1.0);
  (void)a.quantile(0.5);  // build the cache
  SampleSet b = a;
  b.add(2.0);
  EXPECT_DOUBLE_EQ(b.median(), 2.0);
  SampleSet c;
  c = a;
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
}

// Property sweep: resource completion time equals sum of costs regardless of
// submission pattern.
class ResourceBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(ResourceBatchTest, TotalBusyEqualsSumOfCosts) {
  Simulator s;
  Resource r(s, "x");
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  SimTime total = 0;
  for (int i = 0; i < 50; ++i) {
    const SimTime cost = static_cast<SimTime>(rng.next_below(10000)) + 1;
    total += cost;
    r.submit(cost);
  }
  s.run();
  EXPECT_EQ(r.busy_time(), total);
  EXPECT_EQ(s.now(), total);
  EXPECT_EQ(r.jobs_completed(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceBatchTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace xgbe::sim
