// Tests for the tcpdump-style capture, netperf, and the data-integrity
// (checksum placement) model.
#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "tools/netperf.hpp"
#include "tools/netpipe.hpp"
#include "tools/nttcp.hpp"
#include "tools/tcpdump.hpp"

namespace xgbe {
namespace {

TEST(Capture, RecordsHandshakeAndData) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);

  tools::Capture cap(tb);
  cap.attach(wire);

  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 5;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  cap.detach(wire);

  const std::string text = cap.text();
  // SYN with options, data with seq ranges, ACKs with windows.
  EXPECT_NE(text.find("Flags [S]"), std::string::npos);
  EXPECT_NE(text.find("options [mss 8960,wscale,TS]"), std::string::npos);
  EXPECT_NE(text.find("length 8948"), std::string::npos);
  EXPECT_NE(text.find("win "), std::string::npos);
  EXPECT_GE(cap.frames_seen(), 10u);  // 3 handshake + 5 data + acks
}

TEST(Capture, FilterAndRingLimit) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);

  tools::CaptureOptions copt;
  copt.max_lines = 8;
  copt.filter = [](const obs::TraceEvent& ev) { return ev.len > 0; };
  tools::Capture cap(tb, copt);
  cap.attach(wire);

  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 4096;
  opt.count = 50;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);

  EXPECT_EQ(cap.frames_recorded(), 50u);  // data only, ACKs filtered
  EXPECT_EQ(cap.lines().size(), 8u);      // ring bounded
}

// A capture rides its testbed's trace sink, which every component reports
// into, so it must keep its own link's wire events and nothing else. TCP
// frames cross both uplinks; the UDP frames to an unknown node die at the
// switch, so only a's uplink carries them.
TEST(Capture, SeesOnlyItsOwnLink) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& sw = tb.add_switch();
  auto& uplink_a = tb.connect_to_switch(a, sw);
  auto& uplink_b = tb.connect_to_switch(b, sw);
  obs::TraceSink armed(16);
  tb.set_trace_sink(&armed);

  tools::Capture cap(tb);
  cap.attach(uplink_a);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 5;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  net::Packet stray;
  stray.protocol = net::Protocol::kUdp;
  stray.src = a.node();
  stray.dst = tb.next_node();  // no host, no forwarding entry
  stray.payload_bytes = 100;
  stray.frame_bytes = net::udp_frame_bytes(stray.payload_bytes);
  for (int i = 0; i < 3; ++i) a.raw_transmit(stray);
  tb.run_for(sim::usec(100));
  cap.detach(uplink_a);

  EXPECT_GT(uplink_b.frames_delivered(), 0u);
  EXPECT_EQ(uplink_a.frames_delivered(), uplink_b.frames_delivered() + 3);
  EXPECT_EQ(cap.frames_seen(), uplink_a.frames_delivered());
  EXPECT_NE(cap.text().find("UDP, length 100"), std::string::npos);
  // The sink the capture replaced saw nothing meanwhile and is back.
  EXPECT_EQ(armed.offered(), 0u);
  EXPECT_EQ(tb.trace_sink(), &armed);
}

TEST(Capture, FormatsRetransmissions) {
  net::Packet p;
  p.protocol = net::Protocol::kTcp;
  p.src = 1;
  p.dst = 2;
  p.payload_bytes = 100;
  p.frame_bytes = net::tcp_frame_bytes(100, false);
  p.tcp.seq = 1000;
  p.tcp.ack = 2000;
  p.tcp.flags.ack = true;
  p.tcp.window = 65535;
  p.tcp.is_retransmit = true;
  const std::string line = tools::format_frame(sim::usec(5), p);
  EXPECT_NE(line.find("seq 1000:1100"), std::string::npos);
  EXPECT_NE(line.find("ack 2000"), std::string::npos);
  EXPECT_NE(line.find("retransmission"), std::string::npos);
}

TEST(Capture, LongLinesAreNotTruncated) {
  // append_format used to drop everything past its 256-byte stack buffer
  // because the snprintf return value was ignored.
  std::string out = "prefix:";
  const std::string big(1000, 'x');
  obs::append_format(out, "[%s]%d", big.c_str(), 42);
  EXPECT_EQ(out, "prefix:[" + big + "]42");

  obs::TraceEvent ev;
  ev.type = obs::EventType::kWireDrop;
  ev.proto = static_cast<std::uint8_t>(net::Protocol::kTcp);
  ev.src = 1;
  ev.dst = 2;
  ev.len = 100;
  const std::string cause(400, 'c');
  ev.detail = cause.c_str();
  const std::string line = tools::format_wire_event(ev);
  EXPECT_NE(line.find("** dropped (" + cause + ")"), std::string::npos);
}

TEST(Netperf, StreamCorrespondsToNttcp) {
  // §3.2: netperf results "correspond" to NTTCP/Iperf.
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto cfg = a.endpoint_config();
  cfg.push_per_write = false;
  auto conn = tb.open_connection(a, b, cfg, b.endpoint_config());
  auto s = tools::run_netperf_stream(tb, conn, a, b, {});
  ASSERT_TRUE(s.completed);

  core::Testbed tb2;
  auto& c = tb2.add_host("c", hw::presets::pe2650(), tuning);
  auto& d = tb2.add_host("d", hw::presets::pe2650(), tuning);
  tb2.connect(c, d);
  auto conn2 =
      tb2.open_connection(c, d, c.endpoint_config(), d.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 2000;
  auto n = tools::run_nttcp(tb2, conn2, c, d, opt);
  ASSERT_TRUE(n.completed);
  EXPECT_NEAR(s.throughput_gbps() / n.throughput_gbps(), 1.0, 0.25);
}

TEST(Netperf, RrMatchesNetpipeLatency) {
  // A 1-byte TCP_RR transaction is one netpipe round trip.
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto cfg = tools::netpipe_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, cfg);
  auto rr = tools::run_netperf_rr(tb, conn, {});
  ASSERT_TRUE(rr.completed);
  // ~36-38 us per transaction (2 x ~18 us one-way) -> ~27k trans/s.
  EXPECT_NEAR(rr.mean_latency_us, 36.5, 4.0);
  EXPECT_GT(rr.transactions_per_sec, 20000.0);
}

TEST(Integrity, HostChecksumDetectsWhatOffloadMisses) {
  auto run = [](bool offload) {
    core::Testbed tb;
    auto tuning = core::TuningProfile::lan_tuned(9000);
    tuning.rx_corruption_rate = 2e-3;
    tuning.csum_offload = offload;
    auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
    auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
    tb.connect(a, b);
    auto conn =
        tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = 8948;
    opt.count = 2000;
    opt.timeout = sim::sec(300);
    auto r = tools::run_nttcp(tb, conn, a, b, opt);
    EXPECT_TRUE(r.completed);
    struct Out {
      std::uint64_t silent, detected;
    };
    return Out{conn.server->stats().corrupted_delivered,
               b.kernel().csum_drops()};
  };
  const auto offloaded = run(true);
  const auto host = run(false);
  // Offloaded checksums let the damage through silently.
  EXPECT_GT(offloaded.silent, 0u);
  EXPECT_EQ(offloaded.detected, 0u);
  // Host checksums catch it; nothing corrupt reaches the application.
  EXPECT_EQ(host.silent, 0u);
  EXPECT_GT(host.detected, 0u);
}

TEST(Integrity, DetectionCostsCpuButPreservesGoodput) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::lan_tuned(9000);
  tuning.rx_corruption_rate = 1e-3;
  tuning.csum_offload = false;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 1500;
  opt.timeout = sim::sec(300);
  auto r = tools::run_nttcp(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  // Every byte arrived intact: drops became retransmissions.
  EXPECT_EQ(r.bytes, 8948ull * 1500ull);
  EXPECT_EQ(conn.server->stats().corrupted_delivered, 0u);
  EXPECT_GT(conn.client->stats().retransmits, 0u);
}

}  // namespace
}  // namespace xgbe
