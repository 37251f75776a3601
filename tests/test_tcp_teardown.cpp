// Tests for connection teardown (FIN state machine) and the zero-window
// persist timer.
#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

struct Pair {
  core::Testbed tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;
  core::Testbed::Connection conn;

  explicit Pair(const core::TuningProfile& tuning) {
    a = &tb.add_host("a", hw::presets::pe2650(), tuning);
    b = &tb.add_host("b", hw::presets::pe2650(), tuning);
    tb.connect(*a, *b);
    conn = tb.open_connection(*a, *b, a->endpoint_config(),
                              b->endpoint_config());
    EXPECT_TRUE(tb.run_until_established(conn));
  }
};

TEST(Teardown, ActiveCloseWalksTheStates) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  p.conn.client->close();
  p.tb.run_for(sim::msec(1));
  // Peer acked and sent its own FIN? It has no close() call yet, so the
  // client sits in FIN_WAIT_2 and the server in CLOSE_WAIT (half-close).
  EXPECT_EQ(p.conn.client->state(), tcp::TcpState::kFinWait2);
  EXPECT_EQ(p.conn.server->state(), tcp::TcpState::kCloseWait);

  p.conn.server->close();
  p.tb.run_for(sim::msec(1));
  EXPECT_EQ(p.conn.server->state(), tcp::TcpState::kClosed);
  EXPECT_EQ(p.conn.client->state(), tcp::TcpState::kTimeWait);
  p.tb.run_for(sim::sec(2));  // 2MSL
  EXPECT_EQ(p.conn.client->state(), tcp::TcpState::kClosed);
}

TEST(Teardown, CloseCallbacksFire) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  int closed = 0;
  p.conn.client->on_closed = [&] { ++closed; };
  p.conn.server->on_closed = [&] { ++closed; };
  p.conn.client->close();
  p.conn.server->close();
  p.tb.run_for(sim::sec(3));
  EXPECT_EQ(closed, 2);
}

TEST(Teardown, FinWaitsForQueuedData) {
  // close() right after a large write: every byte must still arrive.
  Pair p(core::TuningProfile::lan_tuned(9000));
  std::uint64_t consumed = 0;
  p.conn.server->on_consumed = [&](std::uint64_t b) { consumed += b; };
  for (int i = 0; i < 50; ++i) p.conn.client->app_send(8948, nullptr);
  p.conn.client->close();
  EXPECT_NE(p.conn.client->state(), tcp::TcpState::kFinWait1)
      << "FIN must not overtake queued data";
  p.tb.run_for(sim::msec(50));
  EXPECT_EQ(consumed, 50ull * 8948ull);
  EXPECT_EQ(p.conn.client->state(), tcp::TcpState::kFinWait2);
}

TEST(Teardown, HalfCloseStillDelivers) {
  // After the client closes, the server side can still push data back
  // (CLOSE_WAIT carries data).
  Pair p(core::TuningProfile::lan_tuned(9000));
  p.conn.client->close();
  p.tb.run_for(sim::msec(1));
  ASSERT_EQ(p.conn.server->state(), tcp::TcpState::kCloseWait);
  std::uint64_t consumed = 0;
  p.conn.client->on_consumed = [&](std::uint64_t b) { consumed += b; };
  p.conn.server->app_send(4096, nullptr);
  p.tb.run_for(sim::msec(5));
  EXPECT_EQ(consumed, 4096u);
}

TEST(Teardown, FinSurvivesLoss) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  ASSERT_TRUE(tb.run_until_established(conn));
  // A FIN carries no payload, so forced drops (data frames only) cannot
  // take it. A 1 ms carrier outage on a->b, armed as the client closes,
  // loses the FIN instead: the client must retransmit it until it is
  // acknowledged, and both sides still close.
  wire.set_fault_plan(
      fault::FaultPlan{}.with_flap(tb.now(), tb.now() + sim::msec(1)),
      /*from_a=*/true);
  conn.client->close();
  conn.server->close();
  tb.run_for(sim::sec(5));
  EXPECT_GT(wire.fault_injector(/*from_a=*/true).counters().drops_carrier,
            0u);
  EXPECT_GT(conn.client->stats().fin_retransmits, 0u);
  EXPECT_EQ(conn.server->state(), tcp::TcpState::kClosed);
}

TEST(Persist, ZeroWindowProbesUnstick) {
  // Receiver app reads in rare large gulps: the window slams shut, the
  // sender must probe, and every byte still arrives.
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto ca = a.endpoint_config();
  auto cb = b.endpoint_config();
  cb.rcvbuf = 40000;  // tiny buffer: two jumbo truesizes close it
  auto conn = tb.open_connection(a, b, ca, cb);
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 60;
  opt.timeout = sim::sec(120);
  auto r = tools::run_nttcp(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 8948ull * 60ull);
}

TEST(Persist, ProbeCounterAdvancesWhenReaderStops) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto cb = b.endpoint_config();
  cb.app_reader = false;  // window will close and stay closed
  auto conn = tb.open_connection(a, b, a.endpoint_config(), cb);
  ASSERT_TRUE(tb.run_until_established(conn));
  for (int i = 0; i < 40; ++i) conn.client->app_send(8948, nullptr);
  tb.run_for(sim::sec(10));
  EXPECT_GT(conn.client->stats().window_probes, 0u);
  EXPECT_GT(conn.server->stats().out_of_window, 0u);
  // The connection is stalled, not livelocked: data stopped flowing.
  EXPECT_LT(conn.server->stats().bytes_delivered, 40ull * 8948ull);
}

}  // namespace
}  // namespace xgbe
