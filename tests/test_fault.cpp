// Unit tests for the deterministic fault-injection layer: seeded
// reproducibility, Gilbert–Elliott burst structure, carrier flap windows,
// forced-drop scripting, and per-cause counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/host_fault.hpp"
#include "sim/random.hpp"

namespace xgbe {
namespace {

net::Packet data_frame(std::uint32_t payload = 8948) {
  net::Packet pkt;
  pkt.protocol = net::Protocol::kTcp;
  pkt.payload_bytes = payload;
  pkt.frame_bytes = payload + 78;
  return pkt;
}

net::Packet ack_frame() { return data_frame(0); }

std::string decision_fingerprint(fault::FaultInjector& inj, int frames,
                                 sim::SimTime step = sim::usec(10)) {
  std::string out;
  sim::SimTime now = 0;
  for (int i = 0; i < frames; ++i) {
    const auto d = inj.decide(data_frame(), now);
    out += d.drop ? 'D' : '.';
    out += static_cast<char>('0' + static_cast<int>(d.cause));
    if (d.corrupt) out += 'c';
    if (d.duplicate) out += '+';
    out += std::to_string(d.extra_delay);
    out += '/';
    out += std::to_string(d.duplicate_delay);
    out += ' ';
    now += step;
  }
  return out;
}

TEST(FaultInjector, SameSeedSameDecisionSequence) {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.loss_rate = 0.05;
  plan.corrupt_rate = 0.02;
  plan.duplicate_rate = 0.02;
  plan.reorder_rate = 0.05;
  plan.burst.p_enter_bad = 0.01;
  fault::FaultInjector one(plan);
  fault::FaultInjector two(plan);
  EXPECT_EQ(decision_fingerprint(one, 2000), decision_fingerprint(two, 2000));

  fault::FaultPlan other = plan;
  other.seed = 43;
  fault::FaultInjector three(other);
  EXPECT_NE(decision_fingerprint(one, 2000),
            decision_fingerprint(three, 2000));
}

TEST(FaultInjector, InactivePlanTouchesNothing) {
  fault::FaultInjector inj;
  EXPECT_FALSE(inj.active());
  for (int i = 0; i < 100; ++i) {
    const auto d = inj.decide(data_frame(), sim::usec(i));
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.corrupt);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, 0);
  }
  EXPECT_EQ(inj.counters().frames_seen, 100u);
  EXPECT_EQ(inj.counters().total_drops(), 0u);
}

TEST(FaultInjector, LossOnlyPlanMatchesRawRngDrawSequence) {
  // A loss-only plan draws one chance(loss_rate) per frame and nothing
  // else, so its seed alone fixes which frames it loses: the loss tests
  // and the lossy WAN circuit keep their drop sequences whatever other
  // fault families the injector learns.
  fault::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.loss_rate = 0.01;
  fault::FaultInjector inj(plan);
  sim::Rng reference(0x5eed);
  for (int i = 0; i < 5000; ++i) {
    const bool expect_drop = reference.chance(0.01);
    const auto d = inj.decide(data_frame(), 0);
    ASSERT_EQ(d.drop, expect_drop) << "frame " << i;
    if (d.drop) {
      EXPECT_EQ(d.cause, fault::DropCause::kUniform);
    }
  }
  EXPECT_EQ(inj.counters().drops_uniform, inj.counters().total_drops());
}

TEST(FaultInjector, GilbertElliottLossComesInBursts) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.burst.p_enter_bad = 0.002;
  plan.burst.p_exit_bad = 0.25;  // expected burst length 4 frames
  plan.burst.loss_bad = 1.0;
  fault::FaultInjector inj(plan);

  int bursts = 0;
  std::uint64_t lost = 0;
  bool in_burst = false;
  for (int i = 0; i < 200000; ++i) {
    const bool drop = inj.decide(data_frame(), 0).drop;
    lost += drop ? 1 : 0;
    if (drop && !in_burst) ++bursts;
    in_burst = drop;
  }
  ASSERT_GT(bursts, 50);
  const double mean_burst = static_cast<double>(lost) / bursts;
  EXPECT_GT(mean_burst, 2.5);  // uniform loss at this rate would give ~1.0
  EXPECT_LT(mean_burst, 6.5);
  EXPECT_EQ(inj.counters().drops_burst, lost);
}

TEST(FaultInjector, FlapDropsExactlyInsideTheWindow) {
  fault::FaultPlan plan;
  plan.flaps.push_back(fault::LinkFlap{sim::msec(10), sim::msec(20)});
  fault::FaultInjector inj(plan);
  EXPECT_TRUE(inj.active());

  EXPECT_FALSE(inj.decide(data_frame(), sim::msec(9)).drop);
  const auto in_window = inj.decide(data_frame(), sim::msec(10));
  EXPECT_TRUE(in_window.drop);
  EXPECT_EQ(in_window.cause, fault::DropCause::kCarrier);
  EXPECT_TRUE(inj.decide(ack_frame(), sim::msec(15)).drop);  // carrier is L1
  EXPECT_FALSE(inj.decide(data_frame(), sim::msec(20)).drop);
  EXPECT_EQ(inj.counters().flaps, 1u);
  EXPECT_EQ(inj.counters().drops_carrier, 2u);
}

TEST(FaultInjector, ForeverFlapNeverComesBack) {
  fault::FaultPlan plan;
  plan.flaps.push_back(fault::LinkFlap{sim::msec(5), -1});
  fault::FaultInjector inj(plan);
  EXPECT_FALSE(inj.decide(data_frame(), 0).drop);
  for (int i = 5; i < 50; i += 5) {
    EXPECT_TRUE(inj.decide(data_frame(), sim::msec(i)).drop);
  }
  EXPECT_EQ(inj.counters().flaps, 1u);
}

TEST(FaultInjector, ForcedDropsHitDataNotAcks) {
  fault::FaultInjector inj;
  inj.inject_drops(2);
  EXPECT_TRUE(inj.active());
  EXPECT_FALSE(inj.decide(ack_frame(), 0).drop);  // ACKs spared
  const auto first = inj.decide(data_frame(), 0);
  EXPECT_TRUE(first.drop);
  EXPECT_EQ(first.cause, fault::DropCause::kForced);
  EXPECT_EQ(inj.pending_forced_drops(), 1);
  EXPECT_TRUE(inj.decide(data_frame(), 0).drop);
  EXPECT_FALSE(inj.decide(data_frame(), 0).drop);
  EXPECT_EQ(inj.counters().drops_forced, 2u);
}

TEST(FaultInjector, CorruptionTargetsPayloadOnly) {
  fault::FaultPlan plan;
  plan.corrupt_rate = 1.0;
  fault::FaultInjector inj(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.decide(data_frame(), 0).corrupt);
    EXPECT_FALSE(inj.decide(ack_frame(), 0).corrupt);
  }
  EXPECT_EQ(inj.counters().corruptions, 50u);
}

TEST(FaultInjector, DuplicateAndReorderDelaysAreBounded) {
  fault::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  plan.reorder_rate = 1.0;
  plan.jitter_max = sim::usec(50);
  fault::FaultInjector inj(plan);
  for (int i = 0; i < 200; ++i) {
    const auto d = inj.decide(data_frame(), 0);
    EXPECT_FALSE(d.drop);
    ASSERT_TRUE(d.duplicate);
    EXPECT_GT(d.duplicate_delay, 0);
    EXPECT_LE(d.duplicate_delay, sim::usec(50));
    EXPECT_GT(d.extra_delay, 0);
    EXPECT_LE(d.extra_delay, sim::usec(50));
  }
  EXPECT_EQ(inj.counters().duplicates, 200u);
  EXPECT_EQ(inj.counters().reorders, 200u);
}

TEST(FaultInjector, DataOnlySparesAcks) {
  fault::FaultPlan plan;
  plan.loss_rate = 1.0;
  plan.data_only = true;
  fault::FaultInjector inj(plan);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(inj.decide(ack_frame(), 0).drop);
    EXPECT_TRUE(inj.decide(data_frame(), 0).drop);
  }
}

TEST(FaultInjector, SetPlanResetsCountersAndState) {
  fault::FaultPlan plan;
  plan.loss_rate = 1.0;
  fault::FaultInjector inj(plan);
  inj.decide(data_frame(), 0);
  EXPECT_EQ(inj.counters().total_drops(), 1u);
  inj.set_plan(fault::FaultPlan{});
  EXPECT_EQ(inj.counters().frames_seen, 0u);
  EXPECT_EQ(inj.counters().total_drops(), 0u);
  EXPECT_FALSE(inj.decide(data_frame(), 0).drop);
}

TEST(FaultCounters, AggregationSumsEveryField) {
  fault::FaultCounters a;
  a.frames_seen = 10;
  a.drops_uniform = 2;
  a.corruptions = 1;
  fault::FaultCounters b;
  b.frames_seen = 5;
  b.drops_burst = 3;
  b.duplicates = 4;
  b.flaps = 1;
  a += b;
  EXPECT_EQ(a.frames_seen, 15u);
  EXPECT_EQ(a.drops_uniform, 2u);
  EXPECT_EQ(a.drops_burst, 3u);
  EXPECT_EQ(a.duplicates, 4u);
  EXPECT_EQ(a.flaps, 1u);
  EXPECT_EQ(a.total_drops(), 5u);
}

// --- Host-path fault injector ------------------------------------------------

TEST(HostFaultInjector, InactivePlanNeverDrawsOrCounts) {
  fault::HostFaultInjector inj;
  EXPECT_FALSE(inj.active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.alloc_fails(16384, /*rx=*/true));
    EXPECT_FALSE(inj.interrupt_missed(sim::usec(i)));
    EXPECT_FALSE(inj.rx_ring_stalled(sim::usec(i)));
    EXPECT_FALSE(inj.dma_throttled(sim::usec(i)));
    EXPECT_EQ(inj.sched_resume_at(sim::usec(i)), 0);
  }
  EXPECT_EQ(inj.counters().allocs_seen, 0u);
}

TEST(HostFaultInjector, AllocBudgetCapsFailures) {
  fault::HostFaultPlan plan;
  plan.with_seed(7).with_alloc_failure(1.0, /*budget=*/3);
  fault::HostFaultInjector inj(plan);
  int failures = 0;
  for (int i = 0; i < 50; ++i) {
    if (inj.alloc_fails(16384, /*rx=*/true)) ++failures;
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(inj.counters().alloc_fail_rx, 3u);
  EXPECT_EQ(inj.counters().allocs_seen, 50u);
}

TEST(HostFaultInjector, AllocMinBlockSparesSmallOrders) {
  fault::HostFaultPlan plan;
  plan.with_seed(8).with_alloc_failure(1.0, -1, /*min_block=*/8192);
  fault::HostFaultInjector inj(plan);
  EXPECT_FALSE(inj.alloc_fails(256, /*rx=*/true));
  EXPECT_FALSE(inj.alloc_fails(4096, /*rx=*/false));
  EXPECT_TRUE(inj.alloc_fails(8192, /*rx=*/true));
  EXPECT_TRUE(inj.alloc_fails(16384, /*rx=*/false));
  EXPECT_EQ(inj.counters().alloc_fail_rx, 1u);
  EXPECT_EQ(inj.counters().alloc_fail_tx, 1u);
}

TEST(HostFaultInjector, WindowsAreHalfOpenAndPure) {
  fault::HostFaultPlan plan;
  plan.with_rx_ring_stall(sim::msec(10), sim::msec(20))
      .with_dma_throttle(sim::msec(30), sim::msec(40))
      .with_sched_pause(sim::msec(50), sim::msec(60));
  fault::HostFaultInjector inj(plan);
  EXPECT_FALSE(inj.rx_ring_stalled(sim::msec(10) - 1));
  EXPECT_TRUE(inj.rx_ring_stalled(sim::msec(10)));
  EXPECT_TRUE(inj.rx_ring_stalled(sim::msec(20) - 1));
  EXPECT_FALSE(inj.rx_ring_stalled(sim::msec(20)));
  EXPECT_EQ(inj.rx_stall_end(sim::msec(15)), sim::msec(20));
  EXPECT_EQ(inj.rx_stall_end(sim::msec(25)), 0);
  EXPECT_TRUE(inj.dma_throttled(sim::msec(35)));
  EXPECT_FALSE(inj.dma_throttled(sim::msec(45)));
  EXPECT_EQ(inj.sched_resume_at(sim::msec(55)), sim::msec(60));
  EXPECT_EQ(inj.sched_resume_at(sim::msec(65)), 0);
}

TEST(HostFaultInjector, OverlappingWindowsEndWhereTheirUnionEnds) {
  // Listed out of order: a window, a longer one overlapping its start, one
  // chained onto its end, and a separate one. Each helper returns the first
  // instant in no window, whichever window holding `t` is listed first.
  const std::vector<fault::TimeWindow> windows = {
      {sim::msec(10), sim::msec(20)},
      {sim::msec(3), sim::msec(15)},
      {sim::msec(20), sim::msec(25)},
      {sim::msec(40), sim::msec(50)}};
  fault::HostFaultPlan plan;
  plan.rx_ring_stalls = windows;
  plan.tx_ring_stalls = windows;
  plan.sched_pauses = windows;
  const fault::HostFaultInjector inj(plan);
  using Helper = sim::SimTime (fault::HostFaultInjector::*)(sim::SimTime)
      const;
  for (const Helper end_of : {&fault::HostFaultInjector::rx_stall_end,
                              &fault::HostFaultInjector::tx_stall_end,
                              &fault::HostFaultInjector::sched_resume_at}) {
    EXPECT_EQ((inj.*end_of)(sim::msec(3) - 1), 0);
    EXPECT_EQ((inj.*end_of)(sim::msec(3)), sim::msec(25));
    EXPECT_EQ((inj.*end_of)(sim::msec(12)), sim::msec(25));
    EXPECT_EQ((inj.*end_of)(sim::msec(20)), sim::msec(25));
    EXPECT_EQ((inj.*end_of)(sim::msec(25) - 1), sim::msec(25));
    EXPECT_EQ((inj.*end_of)(sim::msec(25)), 0);
    EXPECT_EQ((inj.*end_of)(sim::msec(45)), sim::msec(50));
    EXPECT_EQ((inj.*end_of)(sim::msec(50)), 0);
  }
}

TEST(HostFaultInjector, SameSeedSamePlanSameDecisions) {
  fault::HostFaultPlan plan;
  plan.with_seed(99).with_alloc_failure(0.3).with_irq_miss(0.2);
  fault::HostFaultInjector x(plan);
  fault::HostFaultInjector y(plan);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(x.alloc_fails(16384, i % 2 == 0),
              y.alloc_fails(16384, i % 2 == 0));
    EXPECT_EQ(x.interrupt_missed(sim::usec(i)),
              y.interrupt_missed(sim::usec(i)));
  }
  EXPECT_EQ(x.counters().alloc_fail_rx, y.counters().alloc_fail_rx);
  EXPECT_EQ(x.counters().irq_missed, y.counters().irq_missed);
}

TEST(HostFaultInjector, SetPlanResetsCountersBudgetAndRng) {
  fault::HostFaultPlan plan;
  plan.with_seed(5).with_alloc_failure(1.0, /*budget=*/2);
  fault::HostFaultInjector inj(plan);
  while (inj.alloc_fails(16384, true)) {
  }
  EXPECT_EQ(inj.counters().alloc_fail_rx, 2u);
  inj.set_plan(plan);  // re-arm: budget and counters start over
  EXPECT_EQ(inj.counters().alloc_fail_rx, 0u);
  EXPECT_TRUE(inj.alloc_fails(16384, true));
}

TEST(HostFaultCounters, AggregationSumsEveryField) {
  fault::HostFaultCounters a;
  a.allocs_seen = 10;
  a.alloc_fail_rx = 2;
  a.irq_missed = 1;
  fault::HostFaultCounters b;
  b.allocs_seen = 5;
  b.alloc_fail_tx = 3;
  b.ring_stall_drops = 4;
  b.sched_defers = 6;
  a += b;
  EXPECT_EQ(a.allocs_seen, 15u);
  EXPECT_EQ(a.alloc_fail_rx, 2u);
  EXPECT_EQ(a.alloc_fail_tx, 3u);
  EXPECT_EQ(a.ring_stall_drops, 4u);
  EXPECT_EQ(a.irq_missed, 1u);
  EXPECT_EQ(a.sched_defers, 6u);
}

TEST(HostFaultDescribe, RendersPlansAndCounters) {
  fault::HostFaultPlan plan;
  EXPECT_FALSE(fault::describe(plan).empty());
  plan.with_alloc_failure(0.01, 10)
      .with_rx_ring_stall(0, sim::msec(1))
      .with_irq_miss(0.05)
      .with_sched_pause(0, sim::msec(1));
  const std::string text = fault::describe(plan);
  EXPECT_NE(text.find("alloc-fail"), std::string::npos);
  EXPECT_NE(text.find("rx-ring"), std::string::npos);
  EXPECT_NE(text.find("irq-miss"), std::string::npos);
  EXPECT_NE(text.find("sched"), std::string::npos);

  fault::HostFaultCounters c;
  EXPECT_EQ(fault::describe(c), "clean");
  c.alloc_fail_rx = 2;
  c.irq_missed = 1;
  const std::string counters = fault::describe(c);
  EXPECT_NE(counters.find("alloc-fail-rx"), std::string::npos);
  EXPECT_NE(counters.find("irq missed"), std::string::npos);
}

TEST(FaultDescribe, RendersPlansAndCounters) {
  fault::FaultPlan plan;
  EXPECT_FALSE(fault::describe(plan).empty());
  plan.loss_rate = 0.01;
  plan.burst.p_enter_bad = 0.001;
  plan.flaps.push_back(fault::LinkFlap{0, sim::msec(1)});
  const std::string text = fault::describe(plan);
  EXPECT_NE(text.find("loss"), std::string::npos);

  fault::FaultCounters c;
  c.drops_uniform = 2;
  c.corruptions = 1;
  EXPECT_FALSE(fault::describe(c).empty());
}

}  // namespace
}  // namespace xgbe
