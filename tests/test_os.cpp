// Unit tests for the OS model: kmalloc classes, socket-buffer accounting,
// kernel cost model, kernel runtime paths.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fault/host_fault.hpp"
#include "hw/presets.hpp"
#include "net/headers.hpp"
#include "os/costs.hpp"
#include "os/kernel.hpp"
#include "os/kmalloc.hpp"
#include "os/sockbuf.hpp"
#include "sim/simulator.hpp"

namespace xgbe::os {
namespace {

TEST(Kmalloc, PowerOfTwoClasses) {
  EXPECT_EQ(kmalloc_block(1), 32u);
  EXPECT_EQ(kmalloc_block(32), 32u);
  EXPECT_EQ(kmalloc_block(33), 64u);
  EXPECT_EQ(kmalloc_block(8192), 8192u);
  EXPECT_EQ(kmalloc_block(8193), 16384u);
  EXPECT_EQ(kmalloc_block(200000), 131072u);  // clamped to largest cache
}

TEST(Kmalloc, PaperBlockFacts) {
  // "An 8160-byte MTU allows an entire packet ... to fit in a single
  // [8192]-byte block whereas a 9000-byte MTU requires the kernel to
  // allocate a [16384]-byte block, thus wasting roughly 7000 bytes" (§3.3).
  const std::uint32_t frame8160 = 8160 + net::kEthHeaderBytes;  // 8174
  const std::uint32_t frame9000 = 9000 + net::kEthHeaderBytes;  // 9014
  EXPECT_EQ(rx_data_block(frame8160), 8192u);
  EXPECT_EQ(rx_data_block(frame9000), 16384u);
  EXPECT_NEAR(rx_alloc_waste(frame9000), 7000.0, 500.0);
  EXPECT_LT(rx_alloc_waste(frame8160), 32u);
}

TEST(Kmalloc, TruesizeIncludesSkbStruct) {
  EXPECT_EQ(skb_truesize(9014), 16384u + kSkbStructBytes);
  EXPECT_EQ(skb_truesize(1518), 2048u + kSkbStructBytes);
}

TEST(RxSockBuf, DefaultBufferAdvertises64K) {
  // Linux 2.4 default rcvbuf 87380 with adv_win_scale=2 -> 64 KB window.
  RxSocketBuffer b(87380);
  EXPECT_EQ(b.full_window_space(2), 65535u);
}

TEST(RxSockBuf, ChargeAndRelease) {
  RxSocketBuffer b(87380);
  EXPECT_TRUE(b.charge_frame(9014, 8948));
  EXPECT_EQ(b.rmem_alloc(), skb_truesize(9014));
  EXPECT_EQ(b.payload_queued(), 8948u);
  b.release_payload(8948);
  EXPECT_EQ(b.rmem_alloc(), 0u);
  EXPECT_EQ(b.payload_queued(), 0u);
}

TEST(RxSockBuf, PartialReleaseProportional) {
  RxSocketBuffer b(262144);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.charge_frame(9014, 8948));
  const std::uint32_t full = b.rmem_alloc();
  b.release_payload(8948 * 2);
  EXPECT_NEAR(b.rmem_alloc(), full / 2.0, 8.0);
}

TEST(RxSockBuf, PureAckChargesNothingDurably) {
  RxSocketBuffer b(87380);
  EXPECT_TRUE(b.charge_frame(66, 0));
  EXPECT_EQ(b.rmem_alloc(), 0u);
}

TEST(RxSockBuf, DropsOnlyBeyondPressureCeiling) {
  RxSocketBuffer b(20000);
  // Fill past rcvbuf: accepted (prune semantics), until 2x rcvbuf.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (b.charge_frame(9014, 8948)) ++accepted;
  }
  EXPECT_GE(accepted, 2);
  EXPECT_LT(accepted, 10);
  EXPECT_GT(b.drops(), 0u);
  EXPECT_LE(b.rmem_alloc(), 2u * 20000u + skb_truesize(9014));
}

TEST(RxSockBuf, WindowSpaceShrinksWithAllocation) {
  RxSocketBuffer b(262144);
  const std::uint32_t before = b.window_space(2);
  EXPECT_TRUE(b.charge_frame(9014, 8948));
  EXPECT_LT(b.window_space(2), before);
}

TEST(TxSockBuf, ChargeReleaseAndFull) {
  TxSocketBuffer b(65536);
  EXPECT_FALSE(b.full());
  b.charge(40000);
  b.charge(30000);
  EXPECT_TRUE(b.full());
  b.release(40000);
  EXPECT_FALSE(b.full());
  b.release(100000);  // over-release clamps at zero
  EXPECT_EQ(b.wmem_alloc(), 0u);
}

TEST(TxSockBuf, WritablePayloadUsesTruesize) {
  TxSocketBuffer b(65536);
  // 9014-byte frames: truesize 16544 -> 3 segments fit in 64 KB.
  EXPECT_EQ(b.writable_payload(9014, 8948), 3u * 8948u);
}

TEST(Costs, ScalingDirections) {
  const auto base = KernelCosts::scaled_for(hw::presets::pe2650());
  const auto fast = KernelCosts::scaled_for(hw::presets::intel_e7505());
  EXPECT_LT(fast.rx_proto, base.rx_proto);      // faster clock
  EXPECT_LT(fast.irq_entry, base.irq_entry);    // faster FSB
  EXPECT_LT(fast.rx_copy_factor, base.rx_copy_factor);
  EXPECT_LT(fast.alloc_ghost_factor, base.alloc_ghost_factor);
}

TEST(Costs, AllocCostGrowsWithBlockOrder) {
  const auto c = KernelCosts::scaled_for(hw::presets::pe2650());
  EXPECT_LT(c.alloc_cost(2048), c.alloc_cost(8192));
  EXPECT_LT(c.alloc_cost(8192), c.alloc_cost(16384));
}

TEST(Costs, SmpFactorOnlyInSmpMode) {
  const auto c = KernelCosts::scaled_for(hw::presets::pe2650());
  EXPECT_DOUBLE_EQ(c.mode_factor(KernelMode::kUniprocessor), 1.0);
  EXPECT_GT(c.mode_factor(KernelMode::kSmp), 1.3);
}

class KernelFixture : public ::testing::Test {
 protected:
  Kernel make(KernelMode mode) {
    KernelConfig cfg;
    cfg.mode = mode;
    return Kernel(sim_, hw::presets::pe2650(), cfg);
  }
  sim::Simulator sim_;
};

TEST_F(KernelFixture, UpKernelUsesOneCpu) {
  auto k = make(KernelMode::kUniprocessor);
  EXPECT_EQ(k.active_cpus(), 1);
  EXPECT_EQ(&k.irq_cpu(), &k.app_cpu());
}

TEST_F(KernelFixture, SmpKernelSplitsCpus) {
  auto k = make(KernelMode::kSmp);
  EXPECT_EQ(k.active_cpus(), 2);
  EXPECT_NE(&k.irq_cpu(), &k.app_cpu());
}

TEST_F(KernelFixture, AppWriteCompletesAndChargesCpu) {
  auto k = make(KernelMode::kUniprocessor);
  bool done = false;
  k.app_write(65536, 8, 16384, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_GT(k.app_cpu().busy_time(), sim::usec(50));  // ~61 us of copy
  EXPECT_GT(k.membus().busy_time(), 0);
}

TEST_F(KernelFixture, AppReadIncludesWakeupDelay) {
  auto k = make(KernelMode::kUniprocessor);
  sim::SimTime done_at = 0;
  k.app_read(1, [&] { done_at = sim_.now(); });
  sim_.run();
  // Wakeup latency is dead time before the (tiny) copy.
  EXPECT_GT(done_at, k.costs().wakeup);
  // But wakeup must not be charged as CPU busy time.
  EXPECT_LT(k.app_cpu().busy_time(), k.costs().wakeup);
}

TEST_F(KernelFixture, QueuedReadsWakeInCallOrder) {
  // Each read's continuation waits out the same wakeup delay, so reads
  // issued together and a read issued mid-wakeup complete in call order,
  // the large copy first.
  auto k = make(KernelMode::kUniprocessor);
  std::vector<int> order;
  k.app_read(65536, [&] { order.push_back(0); });
  k.app_read(1, [&] { order.push_back(1); });
  sim_.schedule(k.costs().wakeup / 2,
                [&] { k.app_read(1, [&] { order.push_back(2); }); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(KernelFixture, RxInterruptDeliversInOrder) {
  auto k = make(KernelMode::kSmp);
  std::vector<net::Seq> seen;
  std::vector<net::Packet> batch(3);
  for (net::Seq i = 0; i < 3; ++i) {
    batch[i].tcp.seq = i;
    batch[i].protocol = net::Protocol::kTcp;
    batch[i].payload_bytes = 1448;
    batch[i].frame_bytes = 1518;
  }
  k.set_deliver([&](const net::Packet& p) { seen.push_back(p.tcp.seq); });
  k.rx_interrupt(batch, true);
  sim_.run();
  EXPECT_EQ(seen, (std::vector<net::Seq>{0, 1, 2}));
}

TEST_F(KernelFixture, RxAllocFailureDropsFrameWithAccounting) {
  auto k = make(KernelMode::kUniprocessor);
  fault::HostFaultPlan plan;
  plan.with_alloc_failure(1.0, /*budget=*/1);  // exactly one kmalloc NULL
  fault::HostFaultInjector inj(plan);
  k.set_host_faults(&inj);
  std::vector<net::Seq> seen;
  std::vector<net::Packet> batch(3);
  for (net::Seq i = 0; i < 3; ++i) {
    batch[i].tcp.seq = i;
    batch[i].protocol = net::Protocol::kTcp;
    batch[i].payload_bytes = 1448;
    batch[i].frame_bytes = 1518;
  }
  k.set_deliver([&](const net::Packet& p) { seen.push_back(p.tcp.seq); });
  k.rx_interrupt(batch, true);
  sim_.run();
  // The first frame hits the failed allocation and is dropped; the rest
  // flow once the budget is spent. Order is preserved.
  EXPECT_EQ(seen, (std::vector<net::Seq>{1, 2}));
  EXPECT_EQ(inj.counters().alloc_fail_rx, 1u);
}

TEST_F(KernelFixture, TxAllocFailureBacksOffAndRetries) {
  auto k = make(KernelMode::kUniprocessor);
  fault::HostFaultPlan plan;
  plan.with_alloc_failure(1.0, /*budget=*/2);
  plan.alloc_retry_backoff = sim::usec(50);
  fault::HostFaultInjector inj(plan);
  k.set_host_faults(&inj);
  sim::SimTime done_at = -1;
  k.app_write(65536, 8, 16384, [&] { done_at = sim_.now(); });
  sim_.run();
  // Nothing is lost: the write completes, delayed by two backoff rounds.
  EXPECT_GE(done_at, sim::usec(100));
  EXPECT_EQ(inj.counters().alloc_fail_tx, 2u);
}

TEST_F(KernelFixture, SchedPauseDefersReaderAndWriter) {
  auto k = make(KernelMode::kUniprocessor);
  fault::HostFaultPlan plan;
  plan.with_sched_pause(0, sim::msec(5));
  fault::HostFaultInjector inj(plan);
  k.set_host_faults(&inj);
  sim::SimTime write_done = -1;
  sim::SimTime read_done = -1;
  k.app_write(8948, 1, 16384, [&] { write_done = sim_.now(); });
  k.app_read(8948, [&] { read_done = sim_.now(); });
  sim_.run();
  // Both syscalls enter the kernel only after the process runs again.
  EXPECT_GE(write_done, sim::msec(5));
  EXPECT_GE(read_done, sim::msec(5));
  EXPECT_EQ(inj.counters().sched_defers, 2u);
}

TEST_F(KernelFixture, DeferredCallsResumeWithTheirOwnContinuations) {
  // A pause lasts until the process lies in no pause window, so the
  // overlapping [10, 20 us) and [3, 100 us) act as one pause to 100 us. The
  // write at 1 us fails its allocation and retries at 51 us, inside the
  // pause, and is deferred again; the reads at 5 us and 15 us are deferred
  // to 100 us at once (the one at 15 us lies in the earlier-listed
  // [10, 20 us) too, yet does not retry at 20 us). That is three
  // deferrals. All three calls enter the kernel at 100 us, in the order
  // they were deferred there; the write's copy starts at once, the reads'
  // after a wakeup. Each retry must run its own call's continuation.
  auto k = make(KernelMode::kUniprocessor);
  fault::HostFaultPlan plan;
  plan.with_sched_pause(sim::usec(10), sim::usec(20))
      .with_sched_pause(sim::usec(3), sim::usec(100))
      .with_alloc_failure(1.0, /*budget=*/1);
  plan.alloc_retry_backoff = sim::usec(50);
  fault::HostFaultInjector inj(plan);
  k.set_host_faults(&inj);
  std::vector<int> order;
  sim_.schedule_at(sim::usec(1), [&] {
    k.app_write(8948, 1, 16384, [&] { order.push_back(0); });
  });
  sim_.schedule_at(sim::usec(5),
                   [&] { k.app_read(8948, [&] { order.push_back(1); }); });
  sim_.schedule_at(sim::usec(15),
                   [&] { k.app_read(8948, [&] { order.push_back(2); }); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GT(sim_.now(), sim::usec(100));
  EXPECT_EQ(inj.counters().sched_defers, 3u);
  EXPECT_EQ(inj.counters().alloc_fail_tx, 1u);
  EXPECT_EQ(sim_.heap_fallbacks(), 0u);
}

TEST_F(KernelFixture, CallParkedLaterResumesFirst) {
  // The write at 1 us fails its allocation and backs off to 51 us; the
  // read at 5 us is parked after it, in a pause that ends sooner, at
  // 30 us. The read's retry fires first and must take the read's
  // continuation, not the oldest parked one (the write's).
  auto k = make(KernelMode::kUniprocessor);
  fault::HostFaultPlan plan;
  plan.with_sched_pause(sim::usec(3), sim::usec(30))
      .with_alloc_failure(1.0, /*budget=*/1);
  plan.alloc_retry_backoff = sim::usec(50);
  fault::HostFaultInjector inj(plan);
  k.set_host_faults(&inj);
  std::vector<std::pair<int, sim::SimTime>> done;
  sim_.schedule_at(sim::usec(1), [&] {
    k.app_write(8948, 1, 16384, [&] { done.emplace_back(0, sim_.now()); });
  });
  sim_.schedule_at(sim::usec(5), [&] {
    k.app_read(8948, [&] { done.emplace_back(1, sim_.now()); });
  });
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 1);
  EXPECT_GT(done[0].second, sim::usec(30));
  EXPECT_LT(done[0].second, sim::usec(51));
  EXPECT_EQ(done[1].first, 0);
  EXPECT_GT(done[1].second, sim::usec(51));
  EXPECT_EQ(inj.counters().sched_defers, 1u);
  EXPECT_EQ(inj.counters().alloc_fail_tx, 1u);
  EXPECT_EQ(sim_.heap_fallbacks(), 0u);
}

TEST_F(KernelFixture, InactiveHostFaultsLeaveTimingBitIdentical) {
  auto charge = [&](bool armed) {
    Kernel k = make(KernelMode::kUniprocessor);
    fault::HostFaultInjector inj;  // default plan: inactive
    if (armed) k.set_host_faults(&inj);
    bool done = false;
    k.app_write(65536, 8, 16384, [&] { done = true; });
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.payload_bytes = 8948;
    p.frame_bytes = 9014;
    k.rx_interrupt({p}, true);
    sim_.run();
    EXPECT_TRUE(done);
    return k.app_cpu().busy_time() + k.irq_cpu().busy_time() +
           k.membus().busy_time();
  };
  EXPECT_EQ(charge(true), charge(false));
}

TEST_F(KernelFixture, ChecksumOffloadSavesCpu) {
  auto charge = [&](bool offload) {
    Kernel k = make(KernelMode::kUniprocessor);
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.payload_bytes = 8948;
    p.frame_bytes = 9014;
    k.rx_interrupt({p}, offload);
    sim_.run();
    return k.irq_cpu().busy_time();
  };
  EXPECT_GT(charge(false), charge(true) + sim::usec(2));
}

TEST_F(KernelFixture, GhostTrafficOnlyForOversizedBlocks) {
  auto ghost = [&](std::uint32_t frame) {
    Kernel k = make(KernelMode::kUniprocessor);
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.payload_bytes = frame - 66;
    p.frame_bytes = frame;
    k.rx_interrupt({p}, true);
    sim_.run();
    return k.membus().busy_time();
  };
  // A 9014-byte frame wastes ~7 KB of its 16 KB block; an 8174-byte frame
  // wastes almost nothing.
  EXPECT_GT(ghost(9014), ghost(8174) + sim::usec(2));
}

}  // namespace
}  // namespace xgbe::os
