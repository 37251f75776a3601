// Connection-lifecycle robustness: RST generation and classification,
// close() in pre-established states, handshake give-up, simultaneous close
// through kClosing, TIME_WAIT absorbing replayed FINs (with a restarted
// 2MSL), and listener SYN-queue overflow shedding load gracefully.
#include <gtest/gtest.h>

#include <string>

#include "core/churn.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "sim/watchdog.hpp"

namespace xgbe {
namespace {

struct Rig {
  core::Testbed tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;
  link::Link* wire = nullptr;

  explicit Rig(const fault::FaultPlan& plan = fault::FaultPlan{},
               sim::SimTime propagation = 0) {
    const auto tuning = core::TuningProfile::lan_tuned(9000);
    a = &tb.add_host("a", hw::presets::pe2650(), tuning);
    b = &tb.add_host("b", hw::presets::pe2650(), tuning);
    link::LinkSpec spec;
    if (propagation > 0) spec.propagation = propagation;
    wire = &tb.connect(*a, *b, spec);
    if (plan.active()) wire->set_fault_plan(plan);
  }
};

// --- Satellite 1: close() before establishment -----------------------------

TEST(TcpLifecycle, CloseInSynSentTearsDownDeterministically) {
  Rig rig;
  // No listener on b: but close before the SYN's fate matters.
  auto& ep = rig.a->create_endpoint(rig.a->endpoint_config(), 7,
                                    rig.b->node());
  bool closed_fired = false;
  ep.on_closed = [&]() { closed_fired = true; };
  ep.connect();
  ASSERT_EQ(ep.state(), tcp::TcpState::kSynSent);
  EXPECT_EQ(rig.a->connection_count(), 1u);

  ep.close();
  EXPECT_TRUE(ep.closed());
  EXPECT_TRUE(closed_fired) << "close() in SYN_SENT must fire on_closed";
  EXPECT_EQ(ep.close_reason(), tcp::CloseReason::kGraceful);
  EXPECT_EQ(rig.a->connection_count(), 0u)
      << "closed endpoint must leave the connection table";

  // The armed handshake timer must be gone: the queue drains (run()
  // returns) instead of retransmitting SYNs from a dead endpoint forever.
  rig.tb.run();
  EXPECT_TRUE(ep.closed());
  EXPECT_EQ(rig.a->adapter().tx_frames(), 1u)
      << "no SYN retransmit after close";
  EXPECT_TRUE(ep.stuck_violation(rig.tb.now()).empty());
}

TEST(TcpLifecycle, CloseInListenReleasesImmediately) {
  Rig rig;
  auto& ep = rig.b->create_endpoint(rig.b->endpoint_config(), 7,
                                    rig.a->node());
  ep.listen();
  bool closed_fired = false;
  ep.on_closed = [&]() { closed_fired = true; };
  ep.close();
  EXPECT_TRUE(ep.closed());
  EXPECT_TRUE(closed_fired);
  EXPECT_EQ(rig.b->connection_count(), 0u);
  rig.tb.run();  // nothing pending
}

// --- RST generation and classification -------------------------------------

TEST(TcpLifecycle, SynToHostWithoutListenerIsRefused) {
  Rig rig;
  auto& ep = rig.a->create_endpoint(rig.a->endpoint_config(), 9,
                                    rig.b->node());
  ep.connect();
  rig.tb.run_for(sim::msec(10));

  EXPECT_TRUE(ep.closed());
  EXPECT_EQ(ep.close_reason(), tcp::CloseReason::kRefused);
  EXPECT_EQ(ep.stats().rsts_received, 1u);
  EXPECT_EQ(rig.b->rsts_sent(), 1u)
      << "the target host answers an unmatched SYN with one RST";
  EXPECT_EQ(rig.a->rsts_sent(), 0u)
      << "a RST must never be answered with a RST";
}

TEST(TcpLifecycle, AbortSendsRstAndPeerClassifiesReset) {
  Rig rig;
  auto conn = rig.tb.open_connection(*rig.a, *rig.b,
                                     rig.a->endpoint_config(),
                                     rig.b->endpoint_config());
  ASSERT_TRUE(rig.tb.run_until_established(conn));

  conn.client->abort();
  EXPECT_TRUE(conn.client->closed());
  EXPECT_EQ(conn.client->close_reason(), tcp::CloseReason::kAborted);
  EXPECT_EQ(conn.client->stats().aborts, 1u);
  EXPECT_EQ(conn.client->stats().rsts_sent, 1u);

  rig.tb.run_for(sim::msec(10));
  EXPECT_TRUE(conn.server->closed());
  EXPECT_EQ(conn.server->close_reason(), tcp::CloseReason::kReset);
  EXPECT_EQ(conn.server->stats().rsts_received, 1u);
}

TEST(TcpLifecycle, HandshakeRetriesBackOffThenGiveUp) {
  // Drop every lifecycle segment: the SYN can never get through, so the
  // client must retransmit with doubling backoff and eventually give up
  // instead of wedging in SYN_SENT forever.
  Rig rig(fault::FaultPlan{}.with_seed(3).with_handshake_loss(1.0));
  auto& ep = rig.a->create_endpoint(rig.a->endpoint_config(), 11,
                                    rig.b->node());
  ep.connect();

  rig.tb.run_for(sim::sec(60));
  EXPECT_EQ(ep.state(), tcp::TcpState::kSynSent) << "still retrying at 60 s";
  EXPECT_TRUE(ep.stuck_violation(rig.tb.now()).empty())
      << "retry phase is within the handshake budget";

  rig.tb.run_for(sim::sec(60));  // give-up lands at ~93 s
  EXPECT_TRUE(ep.closed());
  EXPECT_EQ(ep.close_reason(), tcp::CloseReason::kHandshakeTimeout);
  EXPECT_EQ(ep.stats().handshake_failures, 1u);
  EXPECT_EQ(rig.a->adapter().tx_frames(), 5u)
      << "initial SYN + 4 backed-off retransmits";
  EXPECT_EQ(rig.a->connection_count(), 0u);
}

// --- Satellite 3a: simultaneous close walks kClosing ------------------------

struct SimultaneousCloseOutcome {
  bool saw_closing_client = false;
  bool saw_closing_server = false;
  std::string fingerprint;
};

SimultaneousCloseOutcome run_simultaneous_close() {
  // 5 ms of propagation keeps the crossed FINs (and the kClosing windows
  // they open) wide enough to observe with coarse polling.
  Rig rig(fault::FaultPlan{}, sim::msec(5));
  auto conn = rig.tb.open_connection(*rig.a, *rig.b,
                                     rig.a->endpoint_config(),
                                     rig.b->endpoint_config());
  EXPECT_TRUE(rig.tb.run_until_established(conn));

  // Both ends close in the same event slot: the FINs cross on the wire.
  conn.client->close();
  conn.server->close();

  SimultaneousCloseOutcome out;
  for (int i = 0; i < 40000; ++i) {
    if (conn.client->state() == tcp::TcpState::kClosing) {
      out.saw_closing_client = true;
    }
    if (conn.server->state() == tcp::TcpState::kClosing) {
      out.saw_closing_server = true;
    }
    if (conn.client->closed() && conn.server->closed()) break;
    rig.tb.run_for(sim::usec(100));
  }
  EXPECT_TRUE(conn.client->closed());
  EXPECT_TRUE(conn.server->closed());
  EXPECT_EQ(conn.client->close_reason(), tcp::CloseReason::kGraceful);
  EXPECT_EQ(conn.server->close_reason(), tcp::CloseReason::kGraceful);
  out.fingerprint =
      "c_seg=" + std::to_string(conn.client->stats().segments_sent) + "/" +
      std::to_string(conn.client->stats().segments_received) +
      " s_seg=" + std::to_string(conn.server->stats().segments_sent) + "/" +
      std::to_string(conn.server->stats().segments_received) +
      " acks=" + std::to_string(conn.client->stats().acks_sent) + "/" +
      std::to_string(conn.server->stats().acks_sent) +
      " closed_at=" + std::to_string(rig.tb.now());
  return out;
}

TEST(TcpLifecycle, SimultaneousCloseWalksClosingAndIsBitIdentical) {
  const auto first = run_simultaneous_close();
  EXPECT_TRUE(first.saw_closing_client && first.saw_closing_server)
      << "crossed FINs must pass through kClosing on both ends";
  const auto rerun = run_simultaneous_close();
  EXPECT_EQ(first.fingerprint, rerun.fingerprint)
      << "simultaneous close replayed differently — determinism broke";
}

// --- Satellite 3b: TIME_WAIT absorbs a replayed FIN -------------------------

struct TimeWaitOutcome {
  std::uint64_t absorbed = 0;
  bool restarted_2msl = false;
  std::string fingerprint;
};

TimeWaitOutcome run_time_wait_replay() {
  Rig rig;
  auto conn = rig.tb.open_connection(*rig.a, *rig.b,
                                     rig.a->endpoint_config(),
                                     rig.b->endpoint_config());
  EXPECT_TRUE(rig.tb.run_until_established(conn));

  // Record the server's FIN off the wire so it can be replayed later,
  // exactly as a retransmission would look.
  net::Packet server_fin;
  bool have_fin = false;
  rig.wire->tap = [&](const net::Packet& pkt, bool) {
    if (pkt.src == rig.b->node() && pkt.tcp.flags.fin && !have_fin) {
      server_fin = pkt;
      have_fin = true;
    }
  };

  conn.client->close();
  rig.tb.run_for(sim::msec(5));
  conn.server->close();
  TimeWaitOutcome out;
  for (int i = 0; i < 1000; ++i) {
    if (conn.client->state() == tcp::TcpState::kTimeWait) break;
    rig.tb.run_for(sim::usec(100));
  }
  EXPECT_EQ(conn.client->state(), tcp::TcpState::kTimeWait);
  EXPECT_TRUE(have_fin);

  // Half the 2MSL period in, replay the FIN: it must be absorbed (ACKed,
  // counted) and the quiet period must restart from the replay.
  rig.tb.run_for(sim::msec(500));
  EXPECT_EQ(conn.client->state(), tcp::TcpState::kTimeWait);
  conn.client->on_packet(server_fin);
  out.absorbed = conn.client->stats().time_wait_absorbed;

  // 0.9 s later the original expiry (at +0.5 s) has long passed; only the
  // restarted clock keeps the endpoint in TIME_WAIT.
  rig.tb.run_for(sim::msec(900));
  out.restarted_2msl = conn.client->state() == tcp::TcpState::kTimeWait;
  rig.tb.run_for(sim::msec(200));  // past the restarted 2MSL
  EXPECT_TRUE(conn.client->closed());
  EXPECT_EQ(conn.client->close_reason(), tcp::CloseReason::kGraceful);
  out.fingerprint =
      "absorbed=" + std::to_string(out.absorbed) +
      " acks=" + std::to_string(conn.client->stats().acks_sent) +
      " seg=" + std::to_string(conn.client->stats().segments_sent) + "/" +
      std::to_string(conn.client->stats().segments_received) +
      " now=" + std::to_string(rig.tb.now());
  rig.wire->tap = nullptr;
  return out;
}

TEST(TcpLifecycle, TimeWaitAbsorbsReplayedFinAndRestarts2Msl) {
  const auto first = run_time_wait_replay();
  EXPECT_EQ(first.absorbed, 1u);
  EXPECT_TRUE(first.restarted_2msl)
      << "replayed FIN must restart the 2MSL quiet period";
  const auto rerun = run_time_wait_replay();
  EXPECT_EQ(first.fingerprint, rerun.fingerprint)
      << "TIME_WAIT replay scenario is not bit-identical across reruns";
}

// --- Listener backlog overflow ----------------------------------------------

TEST(TcpLifecycle, SynQueueOverflowRefusesGracefully) {
  Rig rig;
  tcp::ListenerConfig lcfg;
  lcfg.syn_backlog = 2;
  lcfg.rst_on_overflow = true;
  auto& listener = rig.b->listen(lcfg, rig.b->endpoint_config());
  listener.on_accept = [](tcp::Endpoint& ep) {
    ep.on_peer_fin = [&ep]() { ep.close(); };
  };

  sim::Watchdog dog(rig.tb.simulator());
  dog.add_invariant("a", [&]() {
    return rig.a->lifecycle_violation(rig.tb.now());
  });
  dog.add_invariant("b", [&]() {
    return rig.b->lifecycle_violation(rig.tb.now());
  });
  dog.watch_progress("segments", [&]() {
    return rig.a->frames_demuxed() + rig.b->frames_demuxed();
  });
  dog.arm();

  // Eight SYNs in the same burst against a two-deep SYN queue: two half-open
  // slots win, six are refused with a RST each — counted, no wedge.
  std::vector<tcp::Endpoint*> clients;
  for (int i = 0; i < 8; ++i) {
    auto& ep = rig.a->create_endpoint(rig.a->endpoint_config(),
                                      rig.tb.next_flow(), rig.b->node());
    ep.connect();
    clients.push_back(&ep);
  }
  rig.tb.run_for(sim::msec(50));

  int established = 0;
  int refused = 0;
  for (tcp::Endpoint* ep : clients) {
    if (ep->established()) ++established;
    if (ep->close_reason() == tcp::CloseReason::kRefused) ++refused;
  }
  EXPECT_EQ(established, 2);
  EXPECT_EQ(refused, 6);
  EXPECT_EQ(listener.stats().syns_received, 8u);
  EXPECT_EQ(listener.stats().accepted, 2u);
  EXPECT_EQ(listener.stats().refused_syn_queue, 6u);
  EXPECT_FALSE(dog.tripped()) << dog.diagnosis();

  // Every endpoint is either live-and-legal or terminally closed; none are
  // stuck in a transient state.
  EXPECT_TRUE(rig.a->lifecycle_violation(rig.tb.now()).empty());
  EXPECT_TRUE(rig.b->lifecycle_violation(rig.tb.now()).empty());
  dog.disarm();
}

// --- The whole lifecycle through the listener, end to end -------------------

TEST(TcpLifecycle, ChurnSmokeCompletesAndConserves) {
  Rig rig;
  core::churn::Options opt;
  opt.seed = 0x5eed;
  opt.connections = 50;
  opt.arrival_rate_hz = 1000.0;
  opt.max_bytes = 32768;
  const auto res = core::churn::run(rig.tb, *rig.a, *rig.b, opt);
  EXPECT_EQ(res.opened, 50u);
  EXPECT_EQ(res.completed, 50u);
  EXPECT_TRUE(res.conserved());
  EXPECT_GT(res.connections_per_sec(), 0.0);
  EXPECT_GT(res.fct_mean_seconds(), 0.0);
  EXPECT_EQ(rig.a->connection_count(), 0u) << "no live connections remain";
  EXPECT_EQ(rig.b->connection_count(), 0u);
  EXPECT_EQ(rig.a->conn_opens(), 50u);
  EXPECT_EQ(rig.a->conn_closes(), 50u);
}

}  // namespace
}  // namespace xgbe
