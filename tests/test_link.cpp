// Unit tests for links, the switch, and WAN circuit presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "link/device.hpp"
#include "link/link.hpp"
#include "link/switch.hpp"
#include "link/wan.hpp"
#include "net/headers.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace xgbe::link {
namespace {

class SinkDevice : public NetDevice {
 public:
  void deliver(const net::Packet& pkt) override {
    packets.push_back(pkt);
    if (on_deliver) on_deliver(pkt);
  }
  std::vector<net::Packet> packets;
  std::function<void(const net::Packet&)> on_deliver;
};

net::Packet tcp_frame(std::uint32_t payload, net::NodeId src = 1,
                      net::NodeId dst = 2) {
  net::Packet p;
  p.protocol = net::Protocol::kTcp;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = payload;
  p.frame_bytes = net::tcp_frame_bytes(payload, true);
  return p;
}

TEST(Link, SerializationPlusPropagation) {
  sim::Simulator s;
  LinkSpec spec;
  spec.rate_bps = 10e9;
  spec.propagation = sim::nsec(450);
  Link l(s, spec, "x");
  SinkDevice a, b;
  l.attach_a(&a);
  l.attach_b(&b);

  const net::Packet p = tcp_frame(1448);  // frame 1518, wire 1538
  sim::SimTime arrival = -1;
  b.on_deliver = [&](const net::Packet&) { arrival = s.now(); };
  l.transmit(&a, p);
  s.run();
  EXPECT_EQ(arrival, 1538 * 800 + sim::nsec(450));
}

TEST(Link, FullDuplexDirectionsIndependent) {
  sim::Simulator s;
  Link l(s, LinkSpec{}, "x");
  SinkDevice a, b;
  l.attach_a(&a);
  l.attach_b(&b);
  l.transmit(&a, tcp_frame(8948));
  l.transmit(&b, tcp_frame(8948, 2, 1));
  s.run();
  // Both directions delivered; neither serialized behind the other.
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
}

TEST(Link, BackToBackFramesQueueOnWire) {
  sim::Simulator s;
  Link l(s, LinkSpec{}, "x");
  SinkDevice a, b;
  l.attach_a(&a);
  l.attach_b(&b);
  std::vector<sim::SimTime> arrivals;
  b.on_deliver = [&](const net::Packet&) { arrivals.push_back(s.now()); };
  const net::Packet p = tcp_frame(1448);
  l.transmit(&a, p);
  l.transmit(&a, p);
  s.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1538 * 800);  // one wire time apart
}

TEST(Link, QueueLimitTailDrops) {
  sim::Simulator s;
  LinkSpec spec;
  spec.rate_bps = 1e9;
  spec.queue_limit_bytes = 4000;
  Link l(s, spec, "x");
  SinkDevice a, b;
  l.attach_a(&a);
  l.attach_b(&b);
  for (int i = 0; i < 5; ++i) l.transmit(&a, tcp_frame(1448));
  s.run();
  EXPECT_GT(l.drops_queue(), 0u);
  EXPECT_LT(b.packets.size(), 5u);
  EXPECT_EQ(b.packets.size() + l.drops_queue(), 5u);
}

TEST(Link, RandomLossDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator s;
    Link l(s, LinkSpec{}, "x");
    l.set_fault_plan(fault::FaultPlan{}.with_seed(seed).with_loss(0.1));
    SinkDevice a, b;
    l.attach_a(&a);
    l.attach_b(&b);
    for (int i = 0; i < 1000; ++i) l.transmit(&a, tcp_frame(100));
    s.run();
    return l.fault_counters().drops_uniform;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NEAR(static_cast<double>(run_once(5)), 100.0, 40.0);
}

// A classic link keeps each direction's frames in a FIFO ring with one
// pending delivery event; a frame landing before the ring's tail (a reorder
// or duplicate delay) takes its own event instead. Here every frame
// serializes in 10 ps and the fault delays are 1-40 ps, so delayed frames,
// duplicates and their successors interleave and often tie. Delivery must
// still follow (arrival, transmit order) — which a second injector with the
// same plan reproduces — with one event per delivered copy and no frame
// lost or invented.
TEST(Link, ReorderAndDuplicateKeepArrivalThenTransmitOrder) {
  const net::Packet proto = tcp_frame(100);
  constexpr sim::SimTime kSer = 10;
  LinkSpec spec;
  spec.rate_bps = static_cast<double>(proto.wire_bytes()) * 8.0 * 1e12 /
                  static_cast<double>(kSer);
  spec.propagation = sim::nsec(1);
  fault::FaultPlan plan;
  plan.with_seed(99).with_duplication(0.2).with_reordering(0.3, 40);

  sim::Simulator s;
  Link l(s, spec, "x");
  ASSERT_EQ(l.serialization_time(proto), kSer);
  l.set_fault_plan(plan, /*from_a=*/true);
  SinkDevice a, b;
  l.attach_a(&a);
  l.attach_b(&b);
  std::vector<std::pair<sim::SimTime, net::Seq>> got;
  b.on_deliver = [&](const net::Packet& p) {
    got.emplace_back(s.now(), p.tcp.seq);
  };

  constexpr int kFrames = 2000;
  fault::FaultInjector replay(plan);
  // (arrival, transmit order, copy) for every expected delivery.
  std::vector<std::tuple<sim::SimTime, int, int>> want;
  sim::SimTime tail = 0;
  int behind_tail = 0;
  for (int k = 0; k < kFrames; ++k) {
    net::Packet p = proto;
    p.tcp.seq = static_cast<net::Seq>(k);
    const fault::FaultDecision d = replay.decide(p, 0);
    const sim::SimTime arrival =
        (k + 1) * kSer + spec.propagation + d.extra_delay;
    want.emplace_back(arrival, k, 0);
    if (d.duplicate) want.emplace_back(arrival + d.duplicate_delay, k, 1);
    if (arrival < tail) ++behind_tail;
    tail = std::max(tail, arrival);
    l.transmit(&a, p);
  }
  s.run();
  std::sort(want.begin(), want.end());

  // The plan really exercises both delivery paths and equal timestamps.
  EXPECT_GT(behind_tail, 100);
  int ties = 0;
  for (std::size_t i = 1; i < want.size(); ++i) {
    if (std::get<0>(want[i]) == std::get<0>(want[i - 1])) ++ties;
  }
  EXPECT_GT(ties, 50);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].first, std::get<0>(want[i])) << "delivery " << i;
    ASSERT_EQ(got[i].second, static_cast<net::Seq>(std::get<1>(want[i])))
        << "delivery " << i;
  }

  // Ledger: every offered frame delivered once, plus one extra copy per
  // duplicate; nothing dropped; one event per copy (a serialization is a
  // clock mark, not an event).
  const fault::FaultCounters faults = l.fault_counters();
  EXPECT_EQ(faults.duplicates, replay.counters().duplicates);
  EXPECT_EQ(faults.reorders, replay.counters().reorders);
  EXPECT_EQ(l.frames_delivered(true), static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(l.drops_queue() + faults.total_drops(), 0u);
  EXPECT_EQ(got.size(), kFrames + faults.duplicates);
  EXPECT_EQ(s.executed_events(), kFrames + faults.duplicates);
}

// `frames_seen` adds every frame a direction's queue accepts to the frames
// its injector decides, so an active plan counts each of its frames twice.
// The recorded registry snapshots and benchmark digests pin that sum; this
// case pins the rule in both engines with a plan that is active on a->b but
// drops nothing (a carrier flap far in the future).
TEST(Link, FramesSeenCountsActiveDirectionTwice) {
  constexpr std::uint64_t kAb = 7;
  constexpr std::uint64_t kBa = 5;
  const fault::FaultPlan idle =
      fault::FaultPlan{}.with_flap(sim::sec(100), sim::sec(101));
  const auto offer = [&](Link& l, SinkDevice& a, SinkDevice& b) {
    for (std::uint64_t i = 0; i < kAb; ++i) l.transmit(&a, tcp_frame(100));
    for (std::uint64_t i = 0; i < kBa; ++i) {
      l.transmit(&b, tcp_frame(0, 2, 1));
    }
  };
  {
    sim::Simulator s;
    Link l(s, LinkSpec{}, "x");
    SinkDevice a, b;
    l.attach_a(&a);
    l.attach_b(&b);
    l.set_fault_plan(idle, /*from_a=*/true);
    offer(l, a, b);
    s.run();
    EXPECT_EQ(b.packets.size(), kAb);
    EXPECT_EQ(a.packets.size(), kBa);
    EXPECT_EQ(l.fault_counters().frames_seen, 2 * kAb + kBa);
    EXPECT_EQ(l.fault_counters().total_drops(), 0u);
  }
  {
    sim::ShardedEngine engine(2);
    engine.set_lookahead(LinkSpec{}.propagation);
    Link l(engine, 0, 1, LinkSpec{}, "x");
    SinkDevice a, b;
    l.attach_a(&a);
    l.attach_b(&b);
    l.set_fault_plan(idle, /*from_a=*/true);
    offer(l, a, b);
    engine.run();
    EXPECT_EQ(b.packets.size(), kAb);
    EXPECT_EQ(a.packets.size(), kBa);
    EXPECT_EQ(l.fault_counters().frames_seen, 2 * kAb + kBa);
    EXPECT_EQ(l.fault_counters().total_drops(), 0u);
  }
}

TEST(Link, PosFramingReplacesEthernet) {
  sim::Simulator s;
  LinkSpec spec = wan::oc48_pos(1.0);
  Link l(s, spec, "x");
  const net::Packet p = tcp_frame(8948);
  // POS occupancy: IP packet (frame - 18 eth) + 9 POS bytes.
  EXPECT_EQ(l.occupancy_bytes(p), p.frame_bytes - 18 + 9);
  EXPECT_LT(l.effective_rate_bps(), wan::kOc48LineRateBps);
  EXPECT_NEAR(l.effective_rate_bps(), 2.388e9, 2e7);
}

TEST(Wan, PropagationMatchesFiber) {
  // ~4.9 us per km.
  EXPECT_EQ(wan::propagation_for_km(1000.0), sim::usec_f(4900));
}

TEST(Wan, RecordPathRttNear180ms) {
  const sim::SimTime one_way =
      wan::propagation_for_km(wan::kSunnyvaleChicagoKm) +
      wan::propagation_for_km(wan::kChicagoGenevaKm);
  EXPECT_NEAR(2 * sim::to_seconds(one_way), 0.176, 0.01);
}

class SwitchFixture : public ::testing::Test {
 protected:
  SwitchFixture() : sw_(s_, SwitchSpec{}, "sw") {
    for (int i = 0; i < 3; ++i) {
      links_.push_back(std::make_unique<Link>(s_, LinkSpec{}, "l"));
      hosts_.push_back(std::make_unique<SinkDevice>());
      links_.back()->attach_a(hosts_.back().get());
      sw_.add_port(links_.back().get(), /*side_a=*/false);
      sw_.learn(static_cast<net::NodeId>(i + 1), i);
    }
  }
  sim::Simulator s_;
  EthernetSwitch sw_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<SinkDevice>> hosts_;
};

TEST_F(SwitchFixture, ForwardsByDestination) {
  links_[0]->transmit(hosts_[0].get(), tcp_frame(100, 1, 3));
  s_.run();
  EXPECT_EQ(hosts_[2]->packets.size(), 1u);
  EXPECT_EQ(hosts_[1]->packets.size(), 0u);
  EXPECT_EQ(sw_.forwarded(), 1u);
}

TEST_F(SwitchFixture, DropsUnknownDestination) {
  links_[0]->transmit(hosts_[0].get(), tcp_frame(100, 1, 99));
  s_.run();
  EXPECT_EQ(sw_.dropped_no_route(), 1u);
  EXPECT_EQ(sw_.forwarded(), 0u);
}

TEST_F(SwitchFixture, AddsFabricLatency) {
  sim::SimTime direct = 0, switched = 0;
  {
    sim::Simulator s;
    Link l(s, LinkSpec{}, "d");
    SinkDevice a, b;
    l.attach_a(&a);
    l.attach_b(&b);
    b.on_deliver = [&](const net::Packet&) { direct = s.now(); };
    l.transmit(&a, tcp_frame(1));
    s.run();
  }
  hosts_[1]->on_deliver = [&](const net::Packet&) { switched = s_.now(); };
  links_[0]->transmit(hosts_[0].get(), tcp_frame(1, 1, 2));
  s_.run();
  // Through-switch latency adds store-and-forward + fabric: the paper's
  // 19 us vs 25 us delta.
  EXPECT_GT(switched, direct + sim::usec(5));
  EXPECT_LT(switched, direct + sim::usec(8));
}

TEST_F(SwitchFixture, PortBufferTailDrop) {
  // Shrink the egress buffer and flood one output from another port.
  sim::Simulator s;
  SwitchSpec spec;
  spec.port_buffer_bytes = 8000;
  EthernetSwitch sw(s, spec, "small");
  Link in(s, LinkSpec{}, "in"), out(s, LinkSpec{.rate_bps = 1e8}, "out");
  SinkDevice src, dst;
  in.attach_a(&src);
  out.attach_a(&dst);
  sw.add_port(&in, false);
  sw.add_port(&out, false);
  sw.learn(1, 0);
  sw.learn(2, 1);
  for (int i = 0; i < 20; ++i) in.transmit(&src, tcp_frame(1448, 1, 2));
  s.run();
  EXPECT_GT(sw.dropped_queue_full(), 0u);
  EXPECT_EQ(dst.packets.size() + sw.dropped_queue_full(), 20u);
}

TEST(SwitchAggregation, ManyInputsToOneOutput) {
  // Fan-in: three senders to one receiver through the switch; all frames
  // arrive, serialized on the single egress wire.
  sim::Simulator s;
  EthernetSwitch sw(s, SwitchSpec{}, "sw");
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<SinkDevice>> hosts;
  for (int i = 0; i < 4; ++i) {
    links.push_back(std::make_unique<Link>(s, LinkSpec{}, "l"));
    hosts.push_back(std::make_unique<SinkDevice>());
    links.back()->attach_a(hosts.back().get());
    sw.add_port(links.back().get(), false);
    sw.learn(static_cast<net::NodeId>(i + 1), i);
  }
  for (int sender = 1; sender < 4; ++sender) {
    for (int k = 0; k < 10; ++k) {
      links[static_cast<size_t>(sender)]->transmit(
          hosts[static_cast<size_t>(sender)].get(),
          tcp_frame(8948, static_cast<net::NodeId>(sender + 1), 1));
    }
  }
  s.run();
  EXPECT_EQ(hosts[0]->packets.size(), 30u);
}

// --- Exact pins for an egress link that refuses what its port admitted ------
//
// The egress link's queue limit (45,000 bytes) sits below the port buffer,
// so the link refuses frames the port already counted. A refused frame
// stays in the port's queue depth until its zero-delay release runs, so
// the peak can exceed the link's limit. A TimeHook reads the depth every
// 2 us between events; tail drop, RED and ECN-threshold marking each pin
// that log, the peak, the AQM counters and the link's refusals.

/// Reads one port's queue depth at fixed boundaries (FNV-1a over the
/// readings).
class QueueDepthProbe final : public sim::TimeHook {
 public:
  QueueDepthProbe(const EthernetSwitch& sw, int port, sim::SimTime period)
      : sw_(sw), port_(port), period_(period), due_(period) {}
  sim::SimTime due() const override { return due_; }
  void advance(sim::SimTime at) override {
    const std::uint32_t depth = sw_.queued_bytes(port_);
    for (int i = 0; i < 4; ++i) {
      fnv ^= (depth >> (8 * i)) & 0xffu;
      fnv *= 1099511628211ULL;
    }
    ++readings;
    if (depth > 0) ++busy_readings;
    due_ = at + period_;
  }
  std::uint64_t fnv = 1469598103934665603ULL;
  std::uint64_t readings = 0;
  std::uint64_t busy_readings = 0;

 private:
  const EthernetSwitch& sw_;
  int port_;
  sim::SimTime period_;
  sim::SimTime due_;
};

struct EgressPin {
  std::size_t delivered = 0;
  std::uint64_t depth_fnv = 0;
  std::uint64_t busy_readings = 0;
  std::uint32_t peak = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t dropped_red = 0;
  std::uint64_t ce_marked = 0;
  std::uint64_t link_drops_queue = 0;
};

/// Three 10 Gb/s senders into one 2.5 Gb/s egress port whose link holds at
/// most 45,000 bytes; 128 KB of port buffer. Frame sizes vary, and two of
/// the three senders are ECN-capable.
EgressPin run_refusing_egress(const AqmSpec& aqm) {
  sim::Simulator s;
  SwitchSpec spec;
  spec.port_buffer_bytes = 128 * 1024;
  spec.aqm = aqm;
  EthernetSwitch sw(s, spec, "sw");
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<SinkDevice>> hosts;
  for (int i = 0; i < 4; ++i) {
    LinkSpec ls;
    if (i == 0) {
      ls.rate_bps = 2.5e9;
      ls.queue_limit_bytes = 45000;
    }
    links.push_back(std::make_unique<Link>(s, ls, "l" + std::to_string(i)));
    hosts.push_back(std::make_unique<SinkDevice>());
    links.back()->attach_a(hosts.back().get());
    sw.add_port(links.back().get(), /*side_a=*/false);
    sw.learn(static_cast<net::NodeId>(i + 1), i);
  }
  QueueDepthProbe probe(sw, 0, sim::usec(2));
  s.set_time_hook(&probe);
  for (int sender = 1; sender < 4; ++sender) {
    for (int k = 0; k < 60; ++k) {
      net::Packet p = tcp_frame(
          200 + static_cast<std::uint32_t>(k * 3571 + sender * 1237) % 8700,
          static_cast<net::NodeId>(sender + 1), 1);
      p.ect = sender != 3;
      Link* in = links[static_cast<std::size_t>(sender)].get();
      SinkDevice* host = hosts[static_cast<std::size_t>(sender)].get();
      s.schedule_at(sim::nsec(20000 * k + 300 * sender),
                    [in, host, p] { in->transmit(host, p); });
    }
  }
  s.run();
  EgressPin pin;
  pin.delivered = hosts[0]->packets.size();
  pin.depth_fnv = probe.fnv;
  pin.busy_readings = probe.busy_readings;
  pin.peak = sw.port_peak_queued(0);
  pin.dropped_queue_full = sw.dropped_queue_full();
  pin.dropped_red = sw.dropped_red();
  pin.ce_marked = sw.ce_marked();
  pin.link_drops_queue = links[0]->drops_queue();
  EXPECT_EQ(pin.delivered + pin.dropped_queue_full + pin.dropped_red +
                pin.link_drops_queue,
            180u);
  return pin;
}

void expect_egress(const EgressPin& got, const EgressPin& want) {
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.depth_fnv, want.depth_fnv);
  EXPECT_EQ(got.busy_readings, want.busy_readings);
  EXPECT_EQ(got.peak, want.peak);
  EXPECT_EQ(got.dropped_queue_full, want.dropped_queue_full);
  EXPECT_EQ(got.dropped_red, want.dropped_red);
  EXPECT_EQ(got.ce_marked, want.ce_marked);
  EXPECT_EQ(got.link_drops_queue, want.link_drops_queue);
}

TEST(RefusingEgress, TailDropPinsDepthAndRefusals) {
  const EgressPin got = run_refusing_egress(AqmSpec{});
  EXPECT_GT(got.link_drops_queue, 0u);
  EXPECT_GT(got.peak, 45000u);  // refused frames count until released
  expect_egress(got,
                EgressPin{118, 0x2f6241d8693fa66fULL, 657, 53220, 0, 0, 0, 62});
}

TEST(RefusingEgress, RedPinsDepthDropsAndRefusals) {
  AqmSpec aqm;
  aqm.mode = AqmMode::kRed;
  aqm.min_threshold_bytes = 20000;
  aqm.max_threshold_bytes = 60000;
  aqm.max_p_permil = 200;
  aqm.ewma_shift = 2;
  const EgressPin got = run_refusing_egress(aqm);
  EXPECT_GT(got.dropped_red, 0u);
  EXPECT_GT(got.link_drops_queue, 0u);
  expect_egress(got,
                EgressPin{111, 0x46be35631213446cULL, 657, 52917, 0, 17, 0, 52});
}

TEST(RefusingEgress, EcnThresholdPinsDepthMarksAndRefusals) {
  AqmSpec aqm;
  aqm.mode = AqmMode::kEcnThreshold;
  aqm.mark_threshold_bytes = 20000;
  const EgressPin got = run_refusing_egress(aqm);
  EXPECT_GT(got.ce_marked, 0u);
  EXPECT_GT(got.link_drops_queue, 0u);
  expect_egress(
      got, EgressPin{118, 0x2f6241d8693fa66fULL, 657, 53220, 0, 0, 116, 62});
}

}  // namespace
}  // namespace xgbe::link
