// Unit tests for the adapter model: DMA timing, coalescing, TSO, rings.
#include <gtest/gtest.h>

#include <vector>

#include "fault/host_fault.hpp"
#include "hw/presets.hpp"
#include "link/link.hpp"
#include "net/headers.hpp"
#include "nic/adapter.hpp"

namespace xgbe::nic {
namespace {

class SinkDevice : public link::NetDevice {
 public:
  void deliver(const net::Packet& pkt) override { packets.push_back(pkt); }
  std::vector<net::Packet> packets;
};

/// Records when each frame lands.
class ClockedSink : public link::NetDevice {
 public:
  explicit ClockedSink(sim::Simulator& s) : sim_(s) {}
  void deliver(const net::Packet&) override { arrivals.push_back(sim_.now()); }
  std::vector<sim::SimTime> arrivals;

 private:
  sim::Simulator& sim_;
};

class AdapterFixture : public ::testing::Test {
 protected:
  AdapterFixture()
      : membus_(sim_, "membus"),
        spec_(intel_pro10gbe()),
        sys_(hw::presets::pe2650()) {}

  std::unique_ptr<Adapter> make(std::uint32_t mmrbc,
                                sim::SimTime intr_delay = sim::usec(5)) {
    AdapterSpec s = spec_;
    s.intr_delay = intr_delay;
    return std::make_unique<Adapter>(sim_, s, sys_.pcix, sys_.memory, mmrbc,
                                     membus_, "eth0");
  }

  net::Packet data_packet(std::uint32_t payload) {
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.payload_bytes = payload;
    p.frame_bytes = net::tcp_frame_bytes(payload, true);
    p.tcp.timestamps = true;
    p.tcp.flags.ack = true;
    return p;
  }

  /// One driver transmit at absolute time `at`.
  struct Send {
    sim::SimTime at;
    net::Packet pkt;
  };

  /// What a transmit run pins: every frame's arrival at the peer (count,
  /// last, FNV-1a over all of them), the DMA completion each one left
  /// with (the adapter hands a frame to the link when its DMA completes),
  /// and the counters the stall and refusal paths move.
  struct TxPin {
    std::size_t frames = 0;
    std::uint64_t tx_frames = 0;
    sim::SimTime last_arrival = 0;
    std::uint64_t arrivals_fnv = 0;
    std::uint64_t dma_done_fnv = 0;
    std::uint64_t pci_jobs = 0;
    std::uint64_t drops_queue = 0;
    std::uint64_t tx_ring_stalls = 0;
  };

  /// Runs `sends` through a fresh adapter with `s` on a wire with `ls`,
  /// under `plan` when given, to completion.
  TxPin run_tx(const AdapterSpec& s, const link::LinkSpec& ls,
               const std::vector<Send>& sends,
               const fault::HostFaultPlan* plan = nullptr) {
    Adapter nic(sim_, s, sys_.pcix, sys_.memory, 4096, membus_, "eth0");
    link::Link wire(sim_, ls, "w");
    ClockedSink peer(sim_);
    nic.connect(&wire, true);
    wire.attach_b(&peer);
    // The link taps only the frames it accepts, i.e. those that arrive.
    std::vector<sim::SimTime> dma_done;
    wire.tap = [&](const net::Packet&, bool) {
      dma_done.push_back(sim_.now());
    };
    fault::HostFaultInjector inj(plan != nullptr ? *plan
                                                 : fault::HostFaultPlan{});
    if (plan != nullptr) nic.set_host_faults(&inj);
    for (const Send& send : sends) {
      sim_.schedule_at(send.at,
                       [&nic, pkt = &send.pkt] { nic.transmit(*pkt); });
    }
    sim_.run();
    TxPin pin;
    pin.frames = peer.arrivals.size();
    pin.tx_frames = nic.tx_frames();
    pin.last_arrival = peer.arrivals.empty() ? 0 : peer.arrivals.back();
    pin.arrivals_fnv = fnv(peer.arrivals);
    pin.dma_done_fnv = fnv(dma_done);
    pin.pci_jobs = nic.pci_bus().jobs_completed();
    pin.drops_queue = wire.drops_queue();
    pin.tx_ring_stalls = inj.counters().tx_ring_stalls;
    return pin;
  }

  static std::uint64_t fnv(const std::vector<sim::SimTime>& times) {
    std::uint64_t h = 1469598103934665603ULL;
    for (sim::SimTime t : times) {
      for (int i = 0; i < 8; ++i) {
        h ^= (static_cast<std::uint64_t>(t) >> (8 * i)) & 0xffu;
        h *= 1099511628211ULL;
      }
    }
    return h;
  }

  static void expect_pin(const TxPin& got, const TxPin& want) {
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.tx_frames, want.tx_frames);
    EXPECT_EQ(got.last_arrival, want.last_arrival);
    EXPECT_EQ(got.arrivals_fnv, want.arrivals_fnv);
    EXPECT_EQ(got.dma_done_fnv, want.dma_done_fnv);
    EXPECT_EQ(got.pci_jobs, want.pci_jobs);
    EXPECT_EQ(got.drops_queue, want.drops_queue);
    EXPECT_EQ(got.tx_ring_stalls, want.tx_ring_stalls);
  }

  /// TSO super-segments of 9-45 KB, one every 10 us: on a 2 Gb/s wire the
  /// FIFO fills, and every DMA puts a burst of wire frames on the link
  /// (two to six at the default MSS).
  std::vector<Send> tso_sends(std::uint32_t mss = 8948) {
    std::vector<Send> sends;
    for (int k = 0; k < 24; ++k) {
      net::Packet super =
          data_packet(9000 + static_cast<std::uint32_t>(k * 7919) % 36000);
      super.tcp.seq = static_cast<net::Seq>(k) * 50000;
      super.tcp.tso_mss = mss;
      sends.push_back({sim::usec(10 * k), super});
    }
    return sends;
  }

  sim::Simulator sim_;
  sim::Resource membus_;
  AdapterSpec spec_;
  hw::SystemSpec sys_;
};

TEST_F(AdapterFixture, TxDmaTimeMatchesBusModel) {
  auto nic = make(4096);
  link::Link wire(sim_, link::LinkSpec{}, "w");
  SinkDevice peer;
  nic->connect(&wire, true);
  wire.attach_b(&peer);

  const net::Packet p = data_packet(8948);
  nic->transmit(p);
  sim_.run();
  ASSERT_EQ(peer.packets.size(), 1u);
  EXPECT_EQ(nic->pci_bus().busy_time(),
            hw::dma_read_service_time(sys_.pcix, p.frame_bytes, 4096));
  EXPECT_GT(membus_.busy_time(), 0);
}

TEST_F(AdapterFixture, MmrbcChangesApply) {
  auto nic = make(512);
  EXPECT_EQ(nic->mmrbc(), 512u);
  nic->set_mmrbc(4096);
  EXPECT_EQ(nic->mmrbc(), 4096u);
  nic->set_mmrbc(777);  // invalid, ignored
  EXPECT_EQ(nic->mmrbc(), 4096u);
}

TEST_F(AdapterFixture, CoalescingBatchesPackets) {
  auto nic = make(4096, sim::usec(5));
  std::vector<std::size_t> batch_sizes;
  nic->set_rx_handler([&](const std::vector<net::Packet>& batch) {
    batch_sizes.push_back(batch.size());
  });
  // Three frames arrive 1 us apart: all inside the 5 us coalescing window.
  for (int i = 0; i < 3; ++i) {
    sim_.schedule(sim::usec(i), [&, i] { nic->deliver(data_packet(1448)); });
  }
  sim_.run();
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 3u);
  EXPECT_EQ(nic->interrupts_raised(), 1u);
}

TEST_F(AdapterFixture, CoalescingDisabledInterruptsPerPacket) {
  auto nic = make(4096, 0);
  std::vector<std::size_t> batch_sizes;
  nic->set_rx_handler([&](const std::vector<net::Packet>& batch) {
    batch_sizes.push_back(batch.size());
  });
  for (int i = 0; i < 3; ++i) {
    sim_.schedule(sim::usec(i), [&] { nic->deliver(data_packet(1448)); });
  }
  sim_.run();
  EXPECT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(nic->interrupts_raised(), 3u);
}

TEST_F(AdapterFixture, CoalescingDelayBoundsLatency) {
  auto nic = make(4096, sim::usec(5));
  sim::SimTime irq_at = -1;
  nic->set_rx_handler([&](const std::vector<net::Packet>&) { irq_at = sim_.now(); });
  nic->deliver(data_packet(1));
  sim_.run();
  // DMA first, then the 5 us delay.
  const sim::SimTime dma =
      hw::dma_write_service_time(sys_.pcix, data_packet(1).frame_bytes);
  EXPECT_EQ(irq_at, dma + sim::usec(5));
}

TEST_F(AdapterFixture, FullBatchRaisesEarly) {
  AdapterSpec s = spec_;
  s.intr_delay = sim::msec(10);  // long delay: only the cap can fire
  s.max_coalesce = 4;
  Adapter nic(sim_, s, sys_.pcix, sys_.memory, 4096, membus_, "eth0");
  std::vector<std::size_t> batch_sizes;
  nic.set_rx_handler([&](const std::vector<net::Packet>& batch) {
    batch_sizes.push_back(batch.size());
  });
  for (int i = 0; i < 4; ++i) nic.deliver(data_packet(1448));
  sim_.run_until(sim::msec(1));
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 4u);
}

TEST_F(AdapterFixture, RxRingOverflowDrops) {
  AdapterSpec s = spec_;
  s.rx_ring = 8;
  s.intr_delay = sim::msec(100);  // interrupt never fires in time
  s.max_coalesce = 1000;
  Adapter nic(sim_, s, sys_.pcix, sys_.memory, 4096, membus_, "eth0");
  nic.set_rx_handler([](const std::vector<net::Packet>&) {});
  for (int i = 0; i < 20; ++i) nic.deliver(data_packet(1448));
  sim_.run_until(sim::usec(1));
  EXPECT_GT(nic.rx_dropped_ring(), 0u);
}

TEST_F(AdapterFixture, TsoSplitsSuperSegment) {
  auto nic = make(4096);
  link::Link wire(sim_, link::LinkSpec{}, "w");
  SinkDevice peer;
  nic->connect(&wire, true);
  wire.attach_b(&peer);

  net::Packet super = data_packet(30000);
  super.tcp.seq = 1000;
  super.tcp.tso_mss = 8948;
  super.tcp.push = true;
  nic->transmit(super);
  sim_.run();

  ASSERT_EQ(peer.packets.size(), 4u);  // 8948*3 + 3156
  net::Seq expect_seq = 1000;
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < peer.packets.size(); ++i) {
    const net::Packet& f = peer.packets[i];
    EXPECT_EQ(f.tcp.seq, expect_seq);
    EXPECT_LE(f.payload_bytes, 8948u);
    EXPECT_EQ(f.frame_bytes, net::tcp_frame_bytes(f.payload_bytes, true));
    EXPECT_EQ(f.tcp.tso_mss, 0u);
    EXPECT_EQ(f.tcp.push, i + 1 == peer.packets.size());
    expect_seq += f.payload_bytes;
    total += f.payload_bytes;
  }
  EXPECT_EQ(total, 30000u);
  // One DMA for the whole super-segment.
  EXPECT_EQ(nic->pci_bus().jobs_completed(), 1u);
}

TEST_F(AdapterFixture, TxFifoBackpressureStallsDma) {
  // A slow wire (1 Gb/s) behind a fast bus: the FIFO fills and DMA stalls,
  // but every frame is eventually delivered, each at its pinned time.
  AdapterSpec s = intel_e1000();
  s.tx_fifo_bytes = 16 * 1024;
  link::LinkSpec ls;
  ls.rate_bps = 1e9;
  std::vector<Send> sends;
  for (int i = 0; i < 50; ++i) sends.push_back({0, data_packet(8948)});
  const TxPin got = run_tx(s, ls, sends);
  EXPECT_EQ(got.frames, 50u);
  EXPECT_EQ(got.tx_frames, 50u);
  expect_pin(got, TxPin{50, 50, 4264428200, 0x8e827d6e4c64d1afULL,
                        0x7eacabd9ec61d64fULL, 50, 0, 0});
}

// --- Exact pins for the transmit stall and refusal paths --------------------
//
// Each of these paths decides when DMA resumes after the wire frees FIFO
// space: a full FIFO, CSA's memory-speed DMA with TSO super-segments (whose
// per-frame FIFO accounting saturates at zero), frames the host link
// refuses, and a tx-ring stall that opens while frames serialize. A change
// in how wire completions reach the adapter shows here as a moved arrival
// or counter, not only as a different frame count.

TEST_F(AdapterFixture, CsaTsoOnSlowWirePinsEveryArrival) {
  AdapterSpec s = spec_;
  s.on_mch = true;
  s.tx_fifo_bytes = 64 * 1024;
  link::LinkSpec ls;
  ls.rate_bps = 2e9;
  const TxPin got = run_tx(s, ls, tso_sends());
  EXPECT_EQ(got.drops_queue, 0u);
  expect_pin(got, TxPin{83, 83, 2585274604, 0x6d2c46a050004d23ULL,
                        0x4191fa3656690344ULL, 24, 0, 0});
}

TEST_F(AdapterFixture, CsaTsoThrottledThenFastPinsSaturation) {
  // A DMA freeze window slows DMA below the wire, so the FIFO runs empty
  // while a super-segment is still crossing the bus, with the per-frame
  // header bytes (20 or so frames per super-segment at a 1448-byte MSS)
  // saturating the count at zero; once the window closes the FIFO fills
  // to its stall threshold again. The count must take every wire frame
  // that left before a DMA completes before that DMA adds its
  // super-segment, or the stall decisions after the window shift.
  AdapterSpec s = spec_;
  s.on_mch = true;
  s.tx_fifo_bytes = 64 * 1024;
  link::LinkSpec ls;
  ls.rate_bps = 2e9;
  std::vector<Send> sends = tso_sends(1448);
  for (Send& send : tso_sends(1448)) {
    send.at += sim::usec(700);
    send.pkt.tcp.seq += 2000000;
    sends.push_back(send);
  }
  fault::HostFaultPlan plan;
  plan.with_dma_throttle(sim::usec(100), sim::usec(900), /*mmrbc=*/512,
                         /*freeze=*/sim::usec(150));
  const TxPin got = run_tx(s, ls, sends, &plan);
  EXPECT_EQ(got.frames, got.tx_frames);
  expect_pin(got, TxPin{910, 910, 5699082557, 0x83ade3072a546a6aULL,
                        0xcb6742189f1a2d0dULL, 48, 0, 0});
}

TEST_F(AdapterFixture, CsaTsoBehindQueueLimitPinsRefusals) {
  AdapterSpec s = spec_;
  s.on_mch = true;
  s.tx_fifo_bytes = 64 * 1024;
  link::LinkSpec ls;
  ls.rate_bps = 2e9;
  ls.queue_limit_bytes = 40000;
  const TxPin got = run_tx(s, ls, tso_sends());
  EXPECT_GT(got.drops_queue, 0u);
  EXPECT_EQ(got.frames + got.drops_queue, got.tx_frames);
  expect_pin(got,
             TxPin{26, 83, 805514604, 0xf0f2555fbfacfa2cULL,
                   0xbb6bbf5bfae5cb1fULL, 24, 57, 0});
}

// --- Host-path faults at the device layer ------------------------------------

TEST_F(AdapterFixture, RxRingStallDropsThenRecovers) {
  AdapterSpec s = spec_;
  s.rx_ring = 8;
  s.intr_delay = sim::usec(5);
  s.max_coalesce = 4;
  Adapter nic(sim_, s, sys_.pcix, sys_.memory, 4096, membus_, "eth0");
  fault::HostFaultPlan plan;
  plan.with_rx_ring_stall(0, sim::usec(200));
  fault::HostFaultInjector inj(plan);
  nic.set_host_faults(&inj);
  std::size_t delivered = 0;
  nic.set_rx_handler([&](const std::vector<net::Packet>& batch) {
    delivered += batch.size();
  });
  // Fill the ring during the stall: consumed slots are not replenished...
  for (int i = 0; i < 8; ++i) {
    sim_.schedule(sim::usec(i), [&] { nic.deliver(data_packet(1448)); });
  }
  // ...so these arrivals find the ring full and drop.
  for (int i = 0; i < 6; ++i) {
    sim_.schedule(sim::usec(20 + i), [&] { nic.deliver(data_packet(1448)); });
  }
  // After the window the refill catches up and frames flow again.
  for (int i = 0; i < 4; ++i) {
    sim_.schedule(sim::usec(300 + i), [&] { nic.deliver(data_packet(1448)); });
  }
  sim_.run();
  EXPECT_EQ(nic.rx_dropped_ring(), 6u);
  EXPECT_EQ(inj.counters().ring_stall_drops, 6u);
  EXPECT_EQ(delivered, 12u);  // everything that reached the ring
}

TEST_F(AdapterFixture, TxRingStallPausesDmaThenRecovers) {
  auto nic = make(4096);
  link::Link wire(sim_, link::LinkSpec{}, "w");
  SinkDevice peer;
  nic->connect(&wire, true);
  wire.attach_b(&peer);
  fault::HostFaultPlan plan;
  plan.with_tx_ring_stall(0, sim::usec(100));
  fault::HostFaultInjector inj(plan);
  nic->set_host_faults(&inj);

  for (int i = 0; i < 3; ++i) nic->transmit(data_packet(8948));
  sim_.run_until(sim::usec(50));
  EXPECT_EQ(peer.packets.size(), 0u);  // DMA paused mid-stall
  EXPECT_EQ(nic->tx_backlog(), 3u);
  // Each of the three driver posts retried DMA once.
  EXPECT_EQ(inj.counters().tx_ring_stalls, 3u);
  sim_.run();
  EXPECT_EQ(peer.packets.size(), 3u);  // recovery drains the backlog
  EXPECT_EQ(inj.counters().tx_ring_stalls, 3u);
}

TEST_F(AdapterFixture, TxRingStallWhileSerializingCountsEachCompletion) {
  // The window opens with the FIFO full of frames still serializing: every
  // wire completion inside it retries DMA and counts one more stall.
  link::LinkSpec ls;
  ls.rate_bps = 1e9;
  std::vector<Send> sends;
  for (int i = 0; i < 200; ++i) sends.push_back({0, data_packet(1448)});
  fault::HostFaultPlan plan;
  plan.with_tx_ring_stall(sim::usec(600), sim::usec(1400));
  const TxPin got = run_tx(spec_, ls, sends, &plan);
  EXPECT_EQ(got.frames, 200u);
  EXPECT_GT(got.tx_ring_stalls, 50u);
  expect_pin(got,
             TxPin{200, 200, 2465376692, 0x7b1e2165d7072264ULL,
                   0x29c90ce2f462afdULL, 200, 0, 66});
}

TEST_F(AdapterFixture, MissedInterruptRescuedByRecoveryPoll) {
  auto nic = make(4096, sim::usec(5));
  fault::HostFaultPlan plan;
  plan.with_irq_miss(1.0, sim::msec(2));
  fault::HostFaultInjector inj(plan);
  nic->set_host_faults(&inj);
  sim::SimTime irq_at = -1;
  std::size_t delivered = 0;
  nic->set_rx_handler([&](const std::vector<net::Packet>& batch) {
    irq_at = sim_.now();
    delivered += batch.size();
  });
  nic->deliver(data_packet(1448));
  sim_.run();
  EXPECT_EQ(delivered, 1u);  // the frame is late, never lost
  EXPECT_GE(irq_at, sim::msec(2));
  EXPECT_GE(inj.counters().irq_missed, 1u);
  EXPECT_EQ(inj.counters().irq_recovered, 1u);
}

TEST_F(AdapterFixture, IrqStormForcesPerFrameInterrupts) {
  auto nic = make(4096, sim::usec(5));  // coalescing normally batches these
  fault::HostFaultPlan plan;
  plan.with_irq_storm(0, sim::msec(10));
  fault::HostFaultInjector inj(plan);
  nic->set_host_faults(&inj);
  std::vector<std::size_t> batch_sizes;
  nic->set_rx_handler([&](const std::vector<net::Packet>& batch) {
    batch_sizes.push_back(batch.size());
  });
  for (int i = 0; i < 3; ++i) {
    sim_.schedule(sim::usec(i), [&] { nic->deliver(data_packet(1448)); });
  }
  sim_.run();
  EXPECT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(nic->interrupts_raised(), 3u);
  EXPECT_EQ(inj.counters().irq_storm_interrupts, 3u);
}

TEST_F(AdapterFixture, DmaThrottleClampsMmrbcAndAddsFreeze) {
  auto nic = make(4096);
  link::Link wire(sim_, link::LinkSpec{}, "w");
  SinkDevice peer;
  nic->connect(&wire, true);
  wire.attach_b(&peer);
  fault::HostFaultPlan plan;
  plan.with_dma_throttle(0, sim::msec(10), /*mmrbc=*/512,
                         /*freeze=*/sim::usec(5));
  fault::HostFaultInjector inj(plan);
  nic->set_host_faults(&inj);

  const net::Packet p = data_packet(8948);
  nic->transmit(p);
  sim_.run();
  ASSERT_EQ(peer.packets.size(), 1u);
  // Degraded service: the 512-byte-burst read plus the arbitration freeze.
  EXPECT_EQ(nic->pci_bus().busy_time(),
            hw::dma_read_service_time(sys_.pcix, p.frame_bytes, 512) +
                sim::usec(5));
  EXPECT_EQ(inj.counters().dma_throttled, 1u);
  EXPECT_EQ(nic->mmrbc(), 4096u);  // the register itself is untouched
}

TEST(AdapterSpecs, GbeVsTenGig) {
  const AdapterSpec ten = intel_pro10gbe();
  const AdapterSpec one = intel_e1000();
  EXPECT_DOUBLE_EQ(ten.line_rate_bps, 10e9);
  EXPECT_DOUBLE_EQ(one.line_rate_bps, 1e9);
  EXPECT_EQ(ten.max_mtu, 16000u);  // the 82597EX maximum (§3.3)
  EXPECT_TRUE(ten.csum_offload);
  EXPECT_TRUE(ten.tso_capable);
}

}  // namespace
}  // namespace xgbe::nic
