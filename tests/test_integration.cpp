// Cross-module integration tests: topologies, conservation, the tuning
// ladder, multi-flow aggregation, WAN behaviour, tool semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "link/wan.hpp"
#include "obs/span.hpp"
#include "tools/iperf.hpp"
#include "tools/netpipe.hpp"
#include "tools/nttcp.hpp"
#include "tools/pktgen.hpp"
#include "tools/stream.hpp"

namespace xgbe {
namespace {

double nttcp_gbps(const core::TuningProfile& tuning, std::uint32_t payload,
                  std::uint32_t count = 1500) {
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = payload;
  opt.count = count;
  return tools::run_nttcp(tb, conn, a, b, opt).throughput_gbps();
}

TEST(Ladder, EachRungImprovesJumboPeak) {
  // §3.3 at the favourable payload: every optimization rung must help.
  const double stock = nttcp_gbps(core::TuningProfile::stock(9000), 8000);
  const double pci =
      nttcp_gbps(core::TuningProfile::with_pci_burst(9000), 8000);
  const double buf =
      nttcp_gbps(core::TuningProfile::with_big_windows(9000), 8000);
  EXPECT_GT(pci, stock * 1.2);
  EXPECT_GT(buf, pci * 0.95);
  EXPECT_GT(buf, stock * 1.4);
}

TEST(Ladder, MmrbcMarginalForStandardMtu) {
  // §3.3: the burst-size fix barely moves 1500-byte-MTU throughput.
  const double stock = nttcp_gbps(core::TuningProfile::stock(1500), 8000);
  const double pci =
      nttcp_gbps(core::TuningProfile::with_pci_burst(1500), 8000);
  EXPECT_LT(pci / stock, 1.15);
}

TEST(Ladder, JumboBeatsStandardMtu) {
  const double mtu1500 = nttcp_gbps(core::TuningProfile::stock(1500), 8000);
  const double mtu9000 = nttcp_gbps(core::TuningProfile::stock(9000), 8000);
  EXPECT_GT(mtu9000, mtu1500 * 1.3);  // paper: 40-60% better
}

TEST(Conservation, EveryByteDeliveredOnce) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 7777;
  opt.count = 700;
  auto r = tools::run_nttcp(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  const std::uint64_t total = 7777ull * 700ull;
  EXPECT_EQ(r.bytes, total);
  EXPECT_EQ(conn.client->stats().bytes_sent, total);
  EXPECT_EQ(conn.client->stats().bytes_acked, total);
  EXPECT_EQ(conn.server->stats().bytes_delivered, total);
  EXPECT_EQ(conn.server->stats().bytes_consumed, total);
}

TEST(Switch, ThroughSwitchMatchesBackToBack) {
  // Fig 2b: indirect single flow loses little bandwidth through the switch.
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  const double b2b = nttcp_gbps(tuning, 8000);

  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& sw = tb.add_switch();
  tb.connect_to_switch(a, sw);
  tb.connect_to_switch(b, sw);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8000;
  opt.count = 1500;
  const double sw_gbps =
      tools::run_nttcp(tb, conn, a, b, opt).throughput_gbps();
  EXPECT_GT(sw_gbps, b2b * 0.9);
}

TEST(Switch, LatencyHigherThanBackToBack) {
  auto latency = [](bool through_switch) {
    core::Testbed tb;
    auto tuning = core::TuningProfile::lan_tuned(9000);
    auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
    auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
    if (through_switch) {
      auto& sw = tb.add_switch();
      tb.connect_to_switch(a, sw);
      tb.connect_to_switch(b, sw);
    } else {
      tb.connect(a, b);
    }
    auto cfg = tools::netpipe_config(a.endpoint_config());
    auto conn = tb.open_connection(a, b, cfg, cfg);
    tools::NetpipeOptions opt;
    opt.payload = 1;
    opt.iterations = 30;
    return tools::run_netpipe(tb, conn, opt).latency_us;
  };
  const double direct = latency(false);
  const double switched = latency(true);
  // The paper's 19 vs 25 us: ~6 us of switch latency.
  EXPECT_NEAR(switched - direct, 6.0, 1.5);
}

TEST(Iperf, AgreesWithNttcp) {
  // §3.2: "the performance difference between the two is within 2-3%"; we
  // allow a slightly wider band since write sizes differ.
  const auto tuning = core::TuningProfile::lan_tuned(9000);

  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto cfg = tools::iperf_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, b.endpoint_config());
  tools::IperfOptions opt;
  auto r = tools::run_iperf(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  const double nttcp = nttcp_gbps(tuning, 8948, 2000);
  EXPECT_NEAR(r.throughput_gbps() / nttcp, 1.0, 0.25);
}

TEST(Pktgen, BypassesStackAndBeatsTcp) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  tools::PktgenOptions opt;
  opt.duration = sim::msec(50);
  auto r = tools::run_pktgen(tb, a, b, opt);
  ASSERT_TRUE(r.completed);
  // ~5.5 Gb/s on the PE2650 at 8160-byte packets (§3.5.2), CPU mostly idle.
  EXPECT_NEAR(r.throughput_gbps(), 5.7, 0.4);
  EXPECT_NEAR(r.packets_per_sec, 88400.0, 4000.0);
  EXPECT_LT(r.sender_load, 0.3);
}

TEST(Stream, MatchesMemorySpec) {
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(),
                        core::TuningProfile::stock(1500));
  auto r = tools::run_stream(tb, a);
  EXPECT_NEAR(r.copy_gbps(), 8.6, 0.2);  // PE2650 STREAM copy

  core::Testbed tb2;
  auto& c = tb2.add_host("c", hw::presets::pe4600(),
                         core::TuningProfile::stock(1500));
  auto r2 = tools::run_stream(tb2, c);
  EXPECT_NEAR(r2.copy_gbps(), 12.8, 0.3);  // PE4600 STREAM (§3.5.2)
}

TEST(DualAdapter, SecondAdapterDoesNotHelp) {
  // §3.5.2: splitting flows across two adapters on independent buses is
  // statistically identical to one adapter — the host, not the bus, is the
  // bottleneck. Run two flows into one host, one or two adapters.
  auto aggregate = [](bool two_adapters) {
    core::Testbed tb;
    auto tuning = core::TuningProfile::lan_tuned(9000);
    auto& rx = tb.add_host("rx", hw::presets::pe2650(), tuning);
    std::size_t second = 0;
    if (two_adapters) second = rx.add_adapter(nic::intel_pro10gbe());
    auto& tx1 = tb.add_host("tx1", hw::presets::pe2650(), tuning);
    auto& tx2 = tb.add_host("tx2", hw::presets::pe2650(), tuning);
    tb.connect(tx1, rx, link::LinkSpec{}, 0, 0);
    tb.connect(tx2, rx, link::LinkSpec{}, 0, two_adapters ? second : 0);
    // Two adapters on one link port is impossible; with one adapter we need
    // a switch. Use a switch for the single-adapter case instead.
    auto c1 = tools::iperf_config(tx1.endpoint_config());
    auto conn1 = tb.open_connection(tx1, rx, c1, rx.endpoint_config());
    auto conn2 = tb.open_connection(tx2, rx, c1, rx.endpoint_config(), 0,
                                    two_adapters ? second : 0);
    tb.run_until_established(conn1);
    tb.run_until_established(conn2);
    auto consumed = std::make_shared<std::uint64_t>(0);
    std::vector<std::shared_ptr<std::function<void()>>> writers;
    for (auto* conn : {&conn1, &conn2}) {
      conn->server->on_consumed = [consumed](std::uint64_t b) {
        *consumed += b;
      };
      auto writer = std::make_shared<std::function<void()>>();
      auto* client = conn->client;
      *writer = [writer, client]() {
        client->app_send(65536, [writer]() { (*writer)(); });
      };
      (*writer)();
      writers.push_back(writer);
    }
    tb.run_for(sim::msec(30));
    const std::uint64_t base = *consumed;
    const sim::SimTime t0 = tb.now();
    tb.run_for(sim::msec(100));
    for (auto& w : writers) *w = nullptr;  // break self-reference cycles
    return static_cast<double>(*consumed - base) * 8.0 /
           sim::to_seconds(tb.now() - t0) / 1e9;
  };
  const double two = aggregate(true);
  EXPECT_GT(two, 2.5);
  EXPECT_LT(two, 5.5);  // host-bound, nowhere near 2x one adapter's line
}

TEST(Wan, BdpBuffersReachOc48PayloadRate) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::wan(80u * 1024 * 1024);
  auto& a = tb.add_host("sv", hw::presets::wan_endpoint(), tuning);
  auto& b = tb.add_host("ge", hw::presets::wan_endpoint(), tuning);
  tb.build_wan_path(
      a, b,
      {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm),
       link::wan::oc48_pos(link::wan::kChicagoGenevaKm)},
      link::wan::router_spec());
  auto cfg = tools::iperf_config(a.endpoint_config());
  cfg.read_chunk = 1 << 20;
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::IperfOptions opt;
  opt.write_size = 256 * 1024;
  opt.warmup = sim::sec(8);
  opt.duration = sim::sec(4);
  auto r = tools::run_iperf(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.throughput_gbps(), 2.38, 0.05);  // the LSR figure
  EXPECT_EQ(conn.client->stats().retransmits, 0u);
}

TEST(Wan, SmallBuffersThrottleByWindow) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::wan(8u * 1024 * 1024);
  auto& a = tb.add_host("sv", hw::presets::wan_endpoint(), tuning);
  auto& b = tb.add_host("ge", hw::presets::wan_endpoint(), tuning);
  tb.build_wan_path(
      a, b,
      {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm),
       link::wan::oc48_pos(link::wan::kChicagoGenevaKm)},
      link::wan::router_spec());
  auto cfg = tools::iperf_config(a.endpoint_config());
  cfg.read_chunk = 1 << 20;
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::IperfOptions opt;
  opt.write_size = 256 * 1024;
  opt.warmup = sim::sec(8);
  opt.duration = sim::sec(4);
  auto r = tools::run_iperf(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  // ~6 MB window / 176 ms RTT ~= 0.27 Gb/s.
  EXPECT_LT(r.throughput_gbps(), 0.5);
}

TEST(MultiFlow, GbeClientsAggregateThroughSwitch) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::with_big_windows(9000);
  auto& head = tb.add_host("head", hw::presets::pe2650(), tuning);
  auto& sw = tb.add_switch();
  tb.connect_to_switch(head, sw);
  link::LinkSpec gbe;
  gbe.rate_bps = 1e9;
  std::vector<core::Testbed::Connection> conns;
  std::vector<core::Host*> clients;
  for (int i = 0; i < 4; ++i) {
    auto& c = tb.add_host("c" + std::to_string(i), hw::presets::gbe_client(),
                          tuning, nic::intel_e1000());
    tb.connect_to_switch(c, sw, gbe);
    clients.push_back(&c);
    conns.push_back(tb.open_connection(
        c, head, tools::iperf_config(c.endpoint_config()),
        head.endpoint_config()));
  }
  for (auto& conn : conns) ASSERT_TRUE(tb.run_until_established(conn));
  auto consumed = std::make_shared<std::uint64_t>(0);
  std::vector<std::shared_ptr<std::function<void()>>> writers;
  for (auto& conn : conns) {
    conn.server->on_consumed = [consumed](std::uint64_t b) { *consumed += b; };
    auto writer = std::make_shared<std::function<void()>>();
    auto* client = conn.client;
    *writer = [writer, client]() {
      client->app_send(65536, [writer]() { (*writer)(); });
    };
    (*writer)();
    writers.push_back(writer);
  }
  tb.run_for(sim::msec(30));
  const std::uint64_t base = *consumed;
  const sim::SimTime t0 = tb.now();
  tb.run_for(sim::msec(100));
  for (auto& w : writers) *w = nullptr;  // break self-reference cycles
  const double gbps = static_cast<double>(*consumed - base) * 8.0 /
                      sim::to_seconds(tb.now() - t0) / 1e9;
  // Four GbE clients aggregate to most of 4 Gb/s into one 10GbE host.
  EXPECT_GT(gbps, 2.5);
  EXPECT_LT(gbps, 4.0);
}

TEST(Netpipe, LatencyGrowsWithPayload) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto cfg = tools::netpipe_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::NetpipeOptions opt;
  opt.iterations = 30;
  double prev = 0.0;
  for (std::uint32_t payload : {1u, 128u, 512u, 1024u}) {
    opt.payload = payload;
    auto r = tools::run_netpipe(tb, conn, opt);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.latency_us, prev * 0.98);
    prev = r.latency_us;
  }
  // Paper Fig 6: ~20% growth from 1 byte to 1 KB.
  EXPECT_LT(prev, 30.0);
}

// Every scheduled callback too large for InlineCallback's inline buffer
// allocates once per event. The fig6 NetPIPE point through the switch (span
// profiler armed, as the bench runs it) and a short land-speed-record run
// cover the switch, link, NIC, kernel and TCP hot paths; none may allocate.
TEST(HeapFallbacks, Fig6NetpipePointStaysInline) {
  core::Testbed tb;
  obs::SpanProfiler spans;
  tb.set_span_profiler(&spans);
  auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& sw = tb.add_switch();
  tb.connect_to_switch(a, sw);
  tb.connect_to_switch(b, sw);
  auto cfg = tools::netpipe_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::NetpipeOptions opt;
  opt.payload = 1024;
  opt.iterations = 60;
  opt.spans = &spans;
  const auto r = tools::run_netpipe(tb, conn, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(tb.simulator().executed_events(), 1000u);
  EXPECT_EQ(tb.simulator().heap_fallbacks(), 0u);
}

// The section-4 record path, cut to 2.5 s of simulated time: slow start
// reaches ~7,000 segments in flight.
struct ShortLandSpeedRecord {
  ShortLandSpeedRecord()
      : tuning(core::TuningProfile::wan(80u * 1024 * 1024)),
        a(tb.add_host("sv", hw::presets::wan_endpoint(), tuning)),
        b(tb.add_host("ge", hw::presets::wan_endpoint(), tuning)) {
    tb.build_wan_path(
        a, b,
        {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm, 64u << 20),
         link::wan::oc48_pos(link::wan::kChicagoGenevaKm, 64u << 20)},
        link::wan::router_spec());
    auto cfg = tools::iperf_config(a.endpoint_config());
    cfg.read_chunk = 1 << 20;
    conn = tb.open_connection(a, b, cfg, cfg);
  }

  tools::IperfResult run() {
    tools::IperfOptions opt;
    opt.write_size = 256 * 1024;
    opt.warmup = sim::sec(2);
    opt.duration = sim::msec(500);
    return tools::run_iperf(tb, conn, a, b, opt);
  }

  core::Testbed tb;
  core::TuningProfile tuning;
  core::Host& a;
  core::Host& b;
  core::Testbed::Connection conn;
};

TEST(HeapFallbacks, ShortLandSpeedRecordRunStaysInline) {
  ShortLandSpeedRecord lsr;
  ASSERT_TRUE(lsr.run().completed);
  EXPECT_GT(lsr.tb.simulator().executed_events(), 100000u);
  EXPECT_EQ(lsr.tb.simulator().heap_fallbacks(), 0u);
}

fault::FaultPlan reorder_and_duplicate(std::uint64_t seed) {
  return fault::FaultPlan{}
      .with_seed(seed)
      .with_duplication(0.02)
      .with_reordering(0.02, sim::usec(30));
}

// Fault plans send frames down the per-frame events the clean paths never
// schedule: the link's out-of-order deliveries, the switch's delayed and
// duplicate fabric crossings, and the adapter's delayed and duplicate
// receives. Each carries its frame by value and must stay inline.
TEST(HeapFallbacks, ReorderingDuplicatingSwitchedPathStaysInline) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& sw = tb.add_switch();
  link::Link& uplink = tb.connect_to_switch(a, sw);
  tb.connect_to_switch(b, sw);
  uplink.set_fault_plan(reorder_and_duplicate(1));
  sw.set_fault_plan(reorder_and_duplicate(2));
  b.adapter().set_rx_fault_plan(reorder_and_duplicate(3));
  auto cfg = tools::iperf_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::IperfOptions opt;
  opt.warmup = sim::msec(5);
  opt.duration = sim::msec(20);
  ASSERT_TRUE(tools::run_iperf(tb, conn, a, b, opt).completed);
  for (const fault::FaultCounters& c :
       {uplink.fault_counters(), sw.fault_counters(),
        b.adapter().rx_fault_counters()}) {
    EXPECT_GT(c.reorders, 0u);
    EXPECT_GT(c.duplicates, 0u);
  }
  EXPECT_EQ(tb.simulator().heap_fallbacks(), 0u);
}

// Sharded links post their deliveries to the engine's outboxes: the barrier
// schedules each frame on its destination shard, faulted frames included.
TEST(HeapFallbacks, TwoShardTestbedStaysInline) {
  core::cluster::Options opt;
  opt.hosts = 4;
  opt.shards = 2;
  opt.link_fault = reorder_and_duplicate(4);
  auto c = core::cluster::build(opt);
  core::cluster::drive(*c, sim::msec(1), sim::msec(4));
  EXPECT_GT(c->consumed, 0u);
  EXPECT_GT(c->tb.engine().exchanged(), 500u);
  for (std::size_t i = 0; i < c->tb.engine().shard_count(); ++i) {
    EXPECT_GT(c->tb.shard_simulator(i).executed_events(), 1000u);
    EXPECT_EQ(c->tb.shard_simulator(i).heap_fallbacks(), 0u) << "shard " << i;
  }
}

// Host-fault deferrals (a scheduler pause, an -ENOBUFS retry backoff) park
// the caller's continuation in the kernel; the retry event carries only the
// sizes. A continuation captured in the event never fits its buffer, so
// each deferral took the heap path. Same transfer, same events, same clock.
TEST(HeapFallbacks, HostFaultDeferralsStayInline) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  const auto plan = fault::HostFaultPlan{}
                        .with_sched_pause(sim::msec(1), sim::msec(3))
                        .with_alloc_failure(0.01);
  a.set_host_fault_plan(plan);
  b.set_host_fault_plan(plan);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 1000;
  const tools::NttcpResult r = tools::run_nttcp(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  fault::HostFaultCounters faults = a.host_fault_counters();
  faults += b.host_fault_counters();
  EXPECT_GT(faults.sched_defers, 0u);
  EXPECT_GT(faults.alloc_fail_tx, 0u);
  // As when each of the 9 deferrals (2 sched, 7 alloc) captured its
  // continuation in the event and took the heap.
  EXPECT_EQ(tb.now(), 22'519'009'460);
  EXPECT_EQ(r.bytes, 8'948'000u);
  EXPECT_EQ(tb.simulator().executed_events(), 11'198u);
  EXPECT_EQ(tb.simulator().heap_fallbacks(), 0u);
}

// Samples the event set and the sender's flight at a fixed cadence,
// between events, so arming it changes no executed-event count.
class PendingEventSampler : public sim::TimeHook {
 public:
  PendingEventSampler(const sim::Simulator& simulator,
                      const tcp::Endpoint& sender, sim::SimTime period)
      : sim_(simulator), sender_(sender), period_(period), due_(period) {}

  sim::SimTime due() const override { return due_; }
  void advance(sim::SimTime at) override {
    peak_pending = std::max(peak_pending, sim_.pending_events());
    peak_flight = std::max(peak_flight, sender_.unacked_segments());
    due_ = at + period_;
  }

  std::size_t peak_pending = 0;
  std::uint32_t peak_flight = 0;

 private:
  const sim::Simulator& sim_;
  const tcp::Endpoint& sender_;
  sim::SimTime period_;
  sim::SimTime due_;
};

// Deterministic stand-in for the host-time cost of a deep window: frames
// queued behind a link or a Resource wait in FIFOs behind one pending
// event each, so the event heap stays small however many segments are in
// flight, and the executed-event count is one event per frame and per job
// with a continuation. Jobs without one are clock marks (with one event
// per job too it was 884,179), and so is a link frame's serializer
// completion (with one event per frame it was 627,397).
TEST(EventSet, StaysSmallWithThousandsOfSegmentsInFlight) {
  ShortLandSpeedRecord lsr;
  PendingEventSampler sampler(lsr.tb.simulator(), *lsr.conn.client,
                              sim::usec(10));
  lsr.tb.simulator().set_time_hook(&sampler);
  ASSERT_TRUE(lsr.run().completed);
  lsr.tb.simulator().set_time_hook(nullptr);
  EXPECT_GT(sampler.peak_flight, 3000u);  // ~7,000 at the peak
  // One pending event per queued frame and job would put ~3,000 here.
  EXPECT_LE(sampler.peak_pending, 32u);
  EXPECT_EQ(lsr.tb.simulator().executed_events(), 476244u);
}

}  // namespace
}  // namespace xgbe
