// Randomized differential test: the indexed-heap EventQueue against a naive
// reference implementation (a flat vector scanned for the minimum), driven
// by seeded schedule/reserve/cancel/pop interleavings. Covers the hazards
// the heap's handle table must get right (cancel-after-fire, duplicate
// cancels, slot reuse aliasing) and the reserved-sequence contract: an
// event scheduled late with an early reservation sorts by the reservation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace xgbe::sim {
namespace {

// Reference model: every scheduled event, with the same (time, sequence)
// total order as the real queue. `seq` mirrors the queue's sequence
// counter, which schedule() and reserve_seq() both advance.
struct RefEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  bool live = false;
};

std::size_t ref_min(const std::vector<RefEvent>& ref) {
  std::size_t best = ref.size();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!ref[i].live) continue;
    if (best == ref.size() || ref[i].time < ref[best].time ||
        (ref[i].time == ref[best].time && ref[i].seq < ref[best].seq)) {
      best = i;
    }
  }
  return best;
}

std::size_t ref_live(const std::vector<RefEvent>& ref) {
  std::size_t n = 0;
  for (const auto& e : ref) n += e.live ? 1 : 0;
  return n;
}

// Schedules, reserved-sequence schedules, cancels and pops in a seeded mix.
// A reserved sequence is used some steps after it was taken, out of
// reservation order, so a late schedule must still sort by its reservation.
// Times come from a narrow range a third of the time, which makes equal
// timestamps common and the sequence tiebreak decisive.
TEST(EventQueueStress, MatchesNaiveReference) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 777ull, 123456789ull}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::vector<RefEvent> ref;  // indexed by tag (schedule order)
    std::vector<EventId> ids;
    std::vector<std::uint64_t> reserved;  // taken, not yet scheduled
    std::uint64_t next_seq = 1;
    std::uint64_t last_fired = ~0ull;

    const auto draw_time = [&rng] {
      return static_cast<SimTime>(rng.next_below(3) == 0
                                      ? rng.next_below(16)
                                      : rng.next_below(1u << 20));
    };
    const auto add = [&](std::uint64_t seq, bool use_reserved) {
      const SimTime time = draw_time();
      const std::uint64_t tag = ref.size();
      auto cb = [tag, &last_fired] { last_fired = tag; };
      ids.push_back(use_reserved ? q.schedule(time, seq, cb)
                                 : q.schedule(time, cb));
      ref.push_back({time, seq, true});
    };

    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 30 || ref_live(ref) == 0) {
        add(next_seq++, false);
      } else if (roll < 38) {
        const std::uint64_t seq = q.reserve_seq();
        ASSERT_EQ(seq, next_seq);
        ++next_seq;
        reserved.push_back(seq);
      } else if (roll < 45 && !reserved.empty()) {
        const std::size_t k = rng.next_below(reserved.size());
        const std::uint64_t seq = reserved[k];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
        add(seq, true);
      } else if (roll < 70) {
        // Cancel a random event — live, already fired, or already
        // cancelled. The latter two must be exact no-ops.
        const std::size_t k = rng.next_below(ids.size());
        q.cancel(ids[k]);
        ref[k].live = false;
      } else if (roll < 75 && !ids.empty()) {
        // Duplicate cancel of something guaranteed dead.
        const std::size_t k = rng.next_below(ids.size());
        if (!ref[k].live) q.cancel(ids[k]);
      } else {
        const std::size_t expect = ref_min(ref);
        ASSERT_LT(expect, ref.size());
        ASSERT_FALSE(q.empty());
        auto fired = q.pop();
        EXPECT_EQ(fired.time, ref[expect].time);
        last_fired = ~0ull;
        fired.cb();
        EXPECT_EQ(last_fired, expect);
        ref[expect].live = false;
      }
      ASSERT_EQ(q.size(), ref_live(ref));
    }

    // Late schedules for every outstanding reservation, then drain: the
    // remaining pop order must match the reference exactly.
    for (std::uint64_t seq : reserved) add(seq, true);
    while (!q.empty()) {
      const std::size_t expect = ref_min(ref);
      ASSERT_LT(expect, ref.size());
      auto fired = q.pop();
      last_fired = ~0ull;
      fired.cb();
      EXPECT_EQ(last_fired, expect);
      EXPECT_EQ(fired.time, ref[expect].time);
      ref[expect].live = false;
    }
    EXPECT_EQ(ref_live(ref), 0u);
  }
}

// After an event fires, its handle slot may be reused by a new event; the
// old id's generation must no longer match, so cancelling it leaves the
// new tenant untouched even under heavy reuse.
TEST(EventQueueStress, StaleCancelsNeverKillNewTenants) {
  EventQueue q;
  std::vector<EventId> fired_ids;
  int fired = 0;
  for (int round = 0; round < 100; ++round) {
    auto id = q.schedule(round, [&fired] { ++fired; });
    q.pop().cb();
    fired_ids.push_back(id);
  }
  EXPECT_EQ(fired, 100);
  // Fresh events, then stale cancels aimed at every retired handle.
  std::vector<EventId> live_ids;
  for (int i = 0; i < 100; ++i) {
    live_ids.push_back(q.schedule(1000 + i, [&fired] { ++fired; }));
  }
  for (auto id : fired_ids) q.cancel(id);
  EXPECT_EQ(q.size(), 100u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 200);
}

}  // namespace
}  // namespace xgbe::sim
