// Sharded engine determinism suite.
//
// The sharded engine's contract is bit-identical results for any shard
// count. These tests run the canonical pair cluster (core/cluster) at shard
// counts 1/2/4/8 — clean and under chaos fault plans — and compare full
// metrics-registry fingerprints, event totals, and merged per-shard traces.
//
// Set XGBE_CHAOS_SEED to decorrelate the fault plans' RNG seeds (the value
// is XOR-folded in); the active seed is echoed on failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "hw/presets.hpp"
#include "net/headers.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"

namespace {

using xgbe::core::cluster::build;
using xgbe::core::cluster::Cluster;
using xgbe::core::cluster::drive;
using xgbe::core::cluster::fingerprint;
using xgbe::core::cluster::Options;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

std::uint64_t chaos_seed() {
  const char* env = std::getenv("XGBE_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 0;
  return std::strtoull(env, nullptr, 0);
}

struct RunResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t exchanged = 0;
  std::uint64_t consumed = 0;
  xgbe::sim::SimTime now = 0;
};

RunResult run_cluster(Options opt,
                      xgbe::sim::SimTime window = xgbe::sim::msec(4)) {
  auto c = build(opt);
  drive(*c, xgbe::sim::msec(1), window);
  RunResult r;
  r.fingerprint = fingerprint(*c);
  r.events = c->tb.engine().executed_events();
  r.exchanged = c->tb.engine().exchanged();
  r.consumed = c->consumed;
  r.now = c->tb.now();
  return r;
}

void expect_identical(const RunResult& base, const RunResult& got,
                      const std::string& label) {
  EXPECT_EQ(base.fingerprint, got.fingerprint) << label;
  EXPECT_EQ(base.events, got.events) << label;
  EXPECT_EQ(base.exchanged, got.exchanged) << label;
  EXPECT_EQ(base.consumed, got.consumed) << label;
  EXPECT_EQ(base.now, got.now) << label;
}

TEST(ParallelEngine, BitIdenticalAcrossShardCounts) {
  Options opt;
  opt.hosts = 8;
  RunResult base;
  for (const std::size_t shards : kShardCounts) {
    opt.shards = shards;
    const RunResult got = run_cluster(opt);
    if (shards == 1) {
      base = got;
      EXPECT_GT(base.consumed, 0u) << "workload must actually move bytes";
      continue;
    }
    expect_identical(base, got, "shards=" + std::to_string(shards));
  }
}

TEST(ParallelEngine, BitIdenticalUnderChaosFaultPlans) {
  Options opt;
  opt.hosts = 8;
  opt.link_fault = xgbe::fault::FaultPlan{}
                       .with_seed(0xc4a05eedULL ^ chaos_seed())
                       .with_loss(0.005)
                       .with_duplication(0.002)
                       .with_reordering(0.002, xgbe::sim::usec(30));
  RunResult base;
  for (const std::size_t shards : kShardCounts) {
    opt.shards = shards;
    const RunResult got = run_cluster(opt);
    if (shards == 1) {
      base = got;
      continue;
    }
    expect_identical(base, got,
                     "chaos shards=" + std::to_string(shards) +
                         " [XGBE_CHAOS_SEED=" + std::to_string(chaos_seed()) +
                         "]");
  }
}

TEST(ParallelEngine, SingleHostTimerLoadIsShardCountInvariant) {
  Options opt;
  opt.hosts = 1;
  RunResult base;
  for (const std::size_t shards : kShardCounts) {
    opt.shards = shards;
    const RunResult got = run_cluster(opt);
    if (shards == 1) {
      base = got;
      EXPECT_GT(base.events, 0u);
      continue;
    }
    expect_identical(base, got,
                     "solo host shards=" + std::to_string(shards));
  }
}

// Merged per-shard traces must be a partition-invariant timeline: the same
// events, in the same (time, payload) order, whichever shard recorded them.
// The sinks are armed after the topology is built, so every link direction
// must reach its transmitter's sink too: one wire-tx per frame delivered.
TEST(ParallelEngine, MergedShardTracesAreIdentical) {
  std::uint64_t base_fp = 0;
  std::uint64_t base_count = 0;
  for (const std::size_t shards : kShardCounts) {
    std::vector<std::unique_ptr<xgbe::obs::TraceSink>> sinks;
    std::vector<xgbe::obs::TraceSink*> raw;
    std::vector<const xgbe::obs::TraceSink*> craw;
    for (std::size_t i = 0; i < shards; ++i) {
      // Large enough to retain the whole run: the merge sees everything.
      sinks.push_back(std::make_unique<xgbe::obs::TraceSink>(1 << 16));
      raw.push_back(sinks.back().get());
      craw.push_back(sinks.back().get());
    }
    Options opt;
    opt.hosts = 8;
    opt.shards = shards;
    auto c = build(opt);
    c->tb.set_shard_trace_sinks(raw);
    drive(*c, xgbe::sim::msec(1), xgbe::sim::msec(4));
    const auto merged = xgbe::obs::merge_sorted(craw);
    const std::uint64_t fp = xgbe::obs::fingerprint(merged);
    std::uint64_t total = 0;
    for (const auto& sink : sinks) total += sink->recorded();
    std::uint64_t frames = 0;
    for (std::size_t i = 0; i < c->tb.link_count(); ++i) {
      frames += c->tb.link_at(i).frames_delivered();
    }
    std::uint64_t wire_tx = 0;
    for (const xgbe::obs::TraceEvent& ev : merged) {
      if (ev.type == xgbe::obs::EventType::kWireTx) ++wire_tx;
    }
    EXPECT_GT(frames, 0u) << "shards=" << shards;
    EXPECT_EQ(wire_tx, frames) << "shards=" << shards;
    if (shards == 1) {
      base_fp = fp;
      base_count = total;
      EXPECT_GT(base_count, 0u) << "trace must capture the workload";
      continue;
    }
    EXPECT_EQ(base_fp, fp) << "shards=" << shards;
    EXPECT_EQ(base_count, total) << "shards=" << shards;
  }
}

// The engine watchdog evaluates at barriers only: arming it must not
// perturb the simulation in any way.
TEST(ParallelEngine, ArmedWatchdogIsBitIdenticalToUnarmed) {
  Options opt;
  opt.hosts = 4;
  opt.shards = 2;
  const RunResult unarmed = run_cluster(opt);

  auto c = build(opt);
  auto& engine = c->tb.engine();
  // Progress functions run at barriers, where every shard has finished
  // the window, so the live byte count is settled.
  const std::uint64_t* consumed = &c->consumed;
  engine.watch_progress("consumed_bytes", [consumed]() { return *consumed; });
  engine.arm_watchdog({/*interval=*/xgbe::sim::usec(200),
                       /*stalled_ticks=*/10});
  drive(*c, xgbe::sim::msec(1), xgbe::sim::msec(4));
  EXPECT_FALSE(engine.tripped()) << engine.diagnosis();
  RunResult armed;
  armed.fingerprint = fingerprint(*c);
  armed.events = engine.executed_events();
  armed.exchanged = engine.exchanged();
  armed.consumed = c->consumed;
  armed.now = c->tb.now();
  expect_identical(unarmed, armed, "armed watchdog");
}

TEST(ParallelEngine, WatchdogTripsOnStalledProgress) {
  xgbe::sim::ShardedEngine engine(2);
  engine.set_lookahead(xgbe::sim::usec(1));
  // A self-rescheduling tick keeps the event supply alive while the watched
  // counter stays flat — the "wedged component, live event loop" signature.
  auto tick = std::make_shared<std::function<void()>>();
  xgbe::sim::Simulator& s0 = engine.shard(0);
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [&s0, weak]() {
    s0.schedule(xgbe::sim::usec(1), [weak]() {
      if (auto t = weak.lock()) (*t)();
    });
  };
  (*tick)();
  engine.watch_progress("bytes_delivered", []() { return 0; });
  engine.add_trip_context("topology", []() { return "2-shard stall rig"; });
  int trips = 0;
  engine.on_trip = [&trips](const std::string&) { ++trips; };
  engine.arm_watchdog({/*interval=*/xgbe::sim::usec(100),
                       /*stalled_ticks=*/3});
  engine.run_until(xgbe::sim::msec(10));
  EXPECT_TRUE(engine.tripped());
  EXPECT_TRUE(engine.stopped());
  EXPECT_EQ(trips, 1);
  EXPECT_NE(engine.diagnosis().find("bytes_delivered"), std::string::npos)
      << engine.diagnosis();
  EXPECT_NE(engine.diagnosis().find("2-shard stall rig"), std::string::npos)
      << engine.diagnosis();
  EXPECT_LT(engine.now(), xgbe::sim::msec(1))
      << "trip must fire after ~stalled_ticks intervals, not at the horizon";
}

TEST(ParallelEngine, RunUntilAdvancesDrainedShardsToHorizon) {
  xgbe::sim::ShardedEngine engine(3);
  bool fired = false;
  engine.shard(1).schedule(xgbe::sim::usec(5), [&fired]() { fired = true; });
  engine.run_until(xgbe::sim::msec(1));
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.now(), xgbe::sim::msec(1));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(engine.shard(i).now(), xgbe::sim::msec(1)) << "shard " << i;
  }
}

TEST(ParallelEngine, StopRequestHaltsAtBarrier) {
  xgbe::sim::ShardedEngine engine(2);
  engine.set_lookahead(xgbe::sim::usec(1));
  auto tick = std::make_shared<std::function<void()>>();
  xgbe::sim::Simulator& s0 = engine.shard(0);
  std::weak_ptr<std::function<void()>> weak = tick;
  int count = 0;
  *tick = [&s0, weak, &count, &engine]() {
    if (++count == 50) engine.stop();
    s0.schedule(xgbe::sim::usec(1), [weak]() {
      if (auto t = weak.lock()) (*t)();
    });
  };
  (*tick)();
  engine.run();
  EXPECT_TRUE(engine.stopped());
  EXPECT_GE(count, 50);
  EXPECT_LT(engine.now(), xgbe::sim::msec(1));
}

TEST(ParallelEngine, ExchangeCommitOrderBreaksTimestampTies) {
  // Three source shards land frames on shard 0 with IDENTICAL timestamps.
  // The engine's contract: cross-shard deliveries commit in (timestamp,
  // channel id, post order) order, and channel ids follow link creation
  // order — never submission order. The sends are armed in reverse shard
  // order so submission order disagrees with the required commit order.
  xgbe::core::Testbed tb(4);
  const auto system = xgbe::hw::presets::pe2650();
  const auto tuning = xgbe::core::TuningProfile::with_big_windows(9000);
  xgbe::core::Host& rx = tb.add_host_on(0, "rx", system, tuning);
  std::vector<xgbe::core::Host*> txs;
  for (std::size_t s = 1; s <= 3; ++s) {
    xgbe::core::Host& tx =
        tb.add_host_on(s, "tx" + std::to_string(s), system, tuning);
    xgbe::link::LinkSpec spec;
    spec.rate_bps = 10e9;
    spec.propagation = xgbe::sim::usec(5);
    tb.connect(tx, rx, spec);  // creation order fixes the channel ids
    txs.push_back(&tx);
  }
  std::vector<xgbe::net::NodeId> expected;
  for (const auto* tx : txs) expected.push_back(tx->node());

  std::vector<xgbe::net::NodeId> order;
  rx.raw_sink = [&order](const xgbe::net::Packet& pkt) {
    order.push_back(pkt.src);
  };
  for (std::size_t i = txs.size(); i-- > 0;) {
    xgbe::core::Host* tx = txs[i];
    xgbe::net::Packet pkt;
    pkt.protocol = xgbe::net::Protocol::kUdp;
    pkt.src = tx->node();
    pkt.dst = rx.node();
    pkt.flow = tb.next_flow();
    pkt.payload_bytes = 1024;
    pkt.frame_bytes = xgbe::net::udp_frame_bytes(1024);
    tb.shard_simulator(i + 1).schedule(
        xgbe::sim::usec(50), [tx, pkt]() { tx->raw_transmit(pkt); });
  }
  tb.run_for(xgbe::sim::msec(1));
  rx.raw_sink = nullptr;
  // Identical frames at identical timestamps: the tie must break by channel
  // id (link creation order).
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, expected);
}

TEST(ShardedEngine, CommitsInTimeChannelPostOrder) {
  // Posts straight through the engine, no links: shards 1-3 post to shard
  // 0 from events inside one window. Channel ids are allocated 3, 1, 2 in
  // shard terms, so channel order disagrees with shard order; shard 2 posts
  // twice on its channel at one instant, and shard 3 posts a later entry
  // before an earlier one. Shard 0 must run them in (time, channel, post
  // order).
  using xgbe::sim::SimTime;
  const SimTime at = xgbe::sim::usec(10);
  struct Ran {
    int tag;
    SimTime when;
  };
  const std::vector<int> expected = {30, 10, 20, 21, 31};
  xgbe::sim::ShardedEngine engine(4);
  engine.set_lookahead(xgbe::sim::usec(5));
  std::uint32_t channel[4] = {};
  channel[3] = engine.add_channel();
  channel[1] = engine.add_channel();
  channel[2] = engine.add_channel();
  ASSERT_EQ(channel[3], 0u);
  ASSERT_EQ(channel[1], 1u);
  ASSERT_EQ(channel[2], 2u);
  std::vector<Ran> ran;  // appended to by shard 0's events only
  auto post = [&engine, &channel, &ran](std::size_t from, SimTime when,
                                        int tag) {
    engine.post(channel[from], 0, when, [&engine, &ran, tag]() {
      ran.push_back({tag, engine.shard(0).now()});
    });
  };
  engine.shard(1).schedule_at(xgbe::sim::usec(1),
                              [&post, at]() { post(1, at, 10); });
  engine.shard(2).schedule_at(xgbe::sim::usec(1), [&post, at]() {
    post(2, at, 20);
    post(2, at, 21);
  });
  engine.shard(3).schedule_at(xgbe::sim::usec(1), [&post, at]() {
    post(3, at + 1, 31);
    post(3, at, 30);
  });
  engine.run();
  std::vector<int> tags;
  for (const Ran& r : ran) tags.push_back(r.tag);
  EXPECT_EQ(tags, expected);
  ASSERT_EQ(ran.size(), expected.size());
  for (const Ran& r : ran) {
    EXPECT_EQ(r.when, r.tag == 31 ? at + 1 : at) << "tag=" << r.tag;
  }
  EXPECT_EQ(engine.exchanged(), expected.size());
  EXPECT_EQ(engine.shard(0).executed_events(), expected.size());
}

}  // namespace
