// Endpoint-level TCP tests over real simulated hosts: negotiation,
// segmentation semantics, flow control, loss recovery.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

struct Pair {
  core::Testbed tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;

  explicit Pair(const core::TuningProfile& tuning,
                const link::LinkSpec& wire = link::LinkSpec{}) {
    a = &tb.add_host("a", hw::presets::pe2650(), tuning);
    b = &tb.add_host("b", hw::presets::pe2650(), tuning);
    tb.connect(*a, *b, wire);
  }
};

TEST(Handshake, NegotiatesMinimumMss) {
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(),
                        core::TuningProfile::stock(9000));
  auto& b = tb.add_host("b", hw::presets::pe2650(),
                        core::TuningProfile::stock(1500));
  tb.connect(a, b);
  auto ca = a.endpoint_config();
  auto cb = b.endpoint_config();
  auto conn = tb.open_connection(a, b, ca, cb);
  ASSERT_TRUE(tb.run_until_established(conn));
  // Sender limited by the peer's 1460 MSS option minus 12 timestamp bytes.
  EXPECT_EQ(conn.client->mss_payload(), 1448u);
  EXPECT_EQ(conn.server->mss_payload(), 1448u);
}

TEST(Handshake, TimestampsRequireBothEnds) {
  Pair p(core::TuningProfile::stock(9000));
  auto ca = p.a->endpoint_config();
  auto cb = p.b->endpoint_config();
  cb.timestamps = false;
  auto conn = p.tb.open_connection(*p.a, *p.b, ca, cb);
  ASSERT_TRUE(p.tb.run_until_established(conn));
  // No timestamp option -> the full 8960 MSS is usable.
  EXPECT_EQ(conn.client->mss_payload(), 8960u);
}

TEST(Handshake, TimestampsCost12Bytes) {
  Pair p(core::TuningProfile::stock(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));
  EXPECT_EQ(conn.client->mss_payload(), 8948u);  // the paper's MSS
}

TEST(Segmentation, PushPerWriteSendsOneSegmentPerWrite) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 4000;  // sub-MSS writes
  opt.count = 100;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.segments_sent, 100u);  // exactly one segment per write
}

TEST(Segmentation, LargeWritesSplitAtMss) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 9000;  // 8948 + 52 per write
  opt.count = 100;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.segments_sent, 200u);
}

TEST(Segmentation, StreamModeCoalescesToFullMss) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto cfg = p.a->endpoint_config();
  cfg.push_per_write = false;  // iperf semantics
  auto conn = p.tb.open_connection(*p.a, *p.b, cfg, p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 4000;
  opt.count = 100;  // 400000 bytes => ceil(400000/8948) = 45 segments
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.segments_sent, 46u);
  EXPECT_GE(r.segments_sent, 45u);
}

TEST(FlowControl, ClosedWindowStallsWithoutReader) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto ca = p.a->endpoint_config();
  auto cb = p.b->endpoint_config();
  cb.app_reader = false;  // the receiving application never reads
  auto conn = p.tb.open_connection(*p.a, *p.b, ca, cb);
  ASSERT_TRUE(p.tb.run_until_established(conn));
  // Stream far more than the receive buffer can hold.
  for (int i = 0; i < 200; ++i) conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::msec(500));
  // The receiver queue is bounded by its buffer accounting; most data is
  // still waiting at the sender (in the socket or in unadmitted writes).
  EXPECT_LT(conn.server->stats().bytes_delivered, 600u * 1024u);
  EXPECT_LT(conn.client->stats().bytes_sent, 200ull * 8948ull / 2ull);
}

TEST(FlowControl, WindowReopensWhenReaderResumes) {
  // Same as above, but reading resumes: verify delivery completes via the
  // window-update path.
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto cb = p.b->endpoint_config();
  cb.read_chunk = 16384;  // slow reader in small chunks
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(), cb);
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 300;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 8948u * 300u);
}

TEST(Loss, FastRetransmitRecovers) {
  link::LinkSpec lossy;
  lossy.loss_rate = 0.002;
  lossy.loss_seed = 1234;
  Pair p(core::TuningProfile::lan_tuned(9000), lossy);
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 2000;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);  // all data delivered despite loss
  EXPECT_EQ(r.bytes, 8948ull * 2000ull);
  EXPECT_GT(conn.client->stats().retransmits, 0u);
  EXPECT_GT(conn.client->stats().fast_retransmits, 0u);
}

TEST(Loss, HeavyLossFallsBackToRto) {
  link::LinkSpec lossy;
  lossy.loss_rate = 0.25;
  lossy.loss_seed = 77;
  Pair p(core::TuningProfile::lan_tuned(9000), lossy);
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 50;
  opt.timeout = sim::sec(300);
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(conn.client->stats().timeouts, 0u);
}

TEST(Loss, CongestionWindowHalvesOnFastRetransmit) {
  link::LinkSpec lossy;
  lossy.loss_rate = 0.01;
  lossy.loss_seed = 5;
  Pair p(core::TuningProfile::lan_tuned(9000), lossy);
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));
  std::uint32_t max_before_drop = 0;
  bool saw_halving = false;
  std::uint32_t prev = 0;
  conn.client->cwnd_trace = [&](sim::SimTime, std::uint32_t cwnd) {
    if (prev != 0 && cwnd < prev && cwnd <= prev / 2 + 1) saw_halving = true;
    prev = cwnd;
    max_before_drop = std::max(max_before_drop, cwnd);
  };
  for (int i = 0; i < 1000; ++i) conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::msec(200));
  EXPECT_TRUE(saw_halving);
}

TEST(DelayedAck, AcksRoughlyEveryOtherSegment) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 400;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  const double acks = static_cast<double>(conn.server->stats().acks_sent);
  // Delayed ACK: between 1/2 and ~1 ack per segment (window updates add).
  EXPECT_GT(acks, 400 * 0.45);
  EXPECT_LT(acks, 400 * 1.2);
}

TEST(Mechanism, TruesizeWindowCollapseAtJumboMss) {
  // The paper's Fig 3 dip: with default buffers, jumbo-MSS-sized writes
  // throttle well below the 8000-byte-write rate because each segment
  // charges a 16 KB block against an 87380-byte rcvbuf.
  auto run = [](std::uint32_t payload) {
    Pair p(core::TuningProfile::with_pci_burst(9000));
    auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                     p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = payload;
    opt.count = 1500;
    return tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt).throughput_gbps();
  };
  const double at8000 = run(8000);
  const double at8948 = run(8948);
  EXPECT_GT(at8000, at8948 * 1.4);
}

TEST(Mechanism, OversizedWindowsCureTheDip) {
  auto run = [](const core::TuningProfile& t) {
    Pair p(t);
    auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                     p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = 8948;
    opt.count = 1500;
    return tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt).throughput_gbps();
  };
  const double small = run(core::TuningProfile::with_uniprocessor(9000));
  const double big = run(core::TuningProfile::with_big_windows(9000));
  EXPECT_GT(big, small * 1.3);  // §3.3: the 256 KB buffers remove the dip
}

TEST(Tso, OffloadReducesSenderSegmentWork) {
  auto run = [](bool tso) {
    core::TuningProfile t = core::TuningProfile::lan_tuned(9000);
    t.tso = tso;
    Pair p(t);
    auto cfg = p.a->endpoint_config();
    cfg.push_per_write = false;
    auto conn =
        p.tb.open_connection(*p.a, *p.b, cfg, p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = 32768;
    opt.count = 200;
    auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
    EXPECT_TRUE(r.completed);
    return r;
  };
  const auto without = run(false);
  const auto with = run(true);
  // TSO reduces the sender CPU load ("should reduce the CPU load on
  // transmitting systems, and in many cases, will increase throughput").
  EXPECT_LT(with.sender_load, without.sender_load);
  EXPECT_GE(with.throughput_bps, without.throughput_bps * 0.95);
}

// Recounts every endpoint's invariants at a fixed sim-time cadence. A time
// hook fires between events and schedules nothing, so checking perturbs
// nothing.
class InvariantProbe : public sim::TimeHook {
 public:
  InvariantProbe(std::vector<const tcp::Endpoint*> endpoints,
                 sim::SimTime start, sim::SimTime period)
      : endpoints_(std::move(endpoints)), next_(start), period_(period) {}
  sim::SimTime due() const override { return next_; }
  void advance(sim::SimTime at) override {
    ++checks;
    for (const tcp::Endpoint* ep : endpoints_) {
      const std::string v = ep->invariant_violation();
      if (!v.empty() && first_violation.empty()) first_violation = v;
    }
    next_ = at + period_;
  }
  std::uint64_t checks = 0;
  std::string first_violation;

 private:
  std::vector<const tcp::Endpoint*> endpoints_;
  sim::SimTime next_;
  sim::SimTime period_;
};

// The sender caches its flight size (the packets in its retransmission
// queue); invariant_violation() recounts the queue and reports any drift.
// Walk one TSO connection through every path that edits the queue — the
// partial-ACK trim of a super-segment, a fast retransmit, an RTO, a persist
// probe and an abort — and check the cache between every few events.
TEST(FlightCache, MatchesRecountThroughEveryQueueEdit) {
  core::TuningProfile tuning = core::TuningProfile::lan_tuned(9000);
  tuning.tso = true;
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  link::Link& wire = tb.connect(a, b);
  auto cfg = a.endpoint_config();
  cfg.push_per_write = false;  // 64 KB writes become TSO super-segments
  auto conn = tb.open_connection(a, b, cfg, b.endpoint_config());
  ASSERT_TRUE(tb.run_until_established(conn));
  tcp::Endpoint& client = *conn.client;
  InvariantProbe probe({conn.client, conn.server}, tb.now(), sim::usec(5));
  tb.simulator().set_time_hook(&probe);
  const auto step_ok = [&](const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(probe.first_violation, "");
    EXPECT_EQ(client.invariant_violation(), "");
    EXPECT_EQ(conn.server->invariant_violation(), "");
  };

  std::uint64_t written = 0;
  const auto send = [&](int writes, std::uint32_t bytes) {
    for (int i = 0; i < writes; ++i) client.app_send(bytes, nullptr);
    written += static_cast<std::uint64_t>(writes) * bytes;
  };
  // Runs until everything written so far is acknowledged.
  const auto drain = [&] {
    for (int ms = 0; ms < 5000 && client.stats().bytes_acked < written;
         ++ms) {
      tb.run_for(sim::msec(1));
    }
    ASSERT_EQ(client.stats().bytes_acked, written);
  };

  // TSO: each super-segment spans ~7 MSS and the receiver ACKs every two
  // frames, so most ACKs land inside a super-segment and trim it.
  send(16, 65536);
  tb.run_for(sim::usec(500));
  EXPECT_GT(client.unacked_segments(), 0u);
  drain();
  step_ok("tso partial-ack trim");

  // One lost frame mid-stream: duplicate ACKs, then a fast retransmit.
  wire.inject_drops(1);
  send(16, 65536);
  drain();
  EXPECT_GT(client.stats().fast_retransmits, 0u);
  step_ok("fast retransmit");

  // A lone segment lost with nothing behind it draws no duplicate ACKs:
  // only the retransmission timer recovers it.
  wire.inject_drops(1);
  send(1, 1000);
  drain();
  EXPECT_GT(client.stats().timeouts, 0u);
  step_ok("rto");

  // A stalled reader closes the window; the sender probes it.
  conn.server->set_app_reader(false);
  send(64, 65536);
  tb.run_for(sim::sec(2));
  EXPECT_GT(client.stats().window_probes, 0u);
  step_ok("persist probe");

  // Tearing down with data in flight empties the queue and the cache.
  conn.server->set_app_reader(true);
  tb.run_for(sim::usec(200));
  ASSERT_GT(client.unacked_segments(), 0u);
  client.abort();
  EXPECT_EQ(client.unacked_segments(), 0u);
  tb.run_for(sim::msec(1));
  step_ok("abort");
  EXPECT_GT(probe.checks, 1000u);
  tb.simulator().set_time_hook(nullptr);
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  auto run = []() {
    Pair p(core::TuningProfile::lan_tuned(9000));
    auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                     p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = 8192;
    opt.count = 500;
    return tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.elapsed_s, r2.elapsed_s);
  EXPECT_EQ(r1.segments_sent, r2.segments_sent);
  EXPECT_DOUBLE_EQ(r1.throughput_bps, r2.throughput_bps);
}

}  // namespace
}  // namespace xgbe
