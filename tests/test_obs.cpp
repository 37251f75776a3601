// Tests for the observability layer: metrics registry snapshots, the trace
// ring / flight recorder, and the bench helpers built on top of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/churn.hpp"
#include "core/testbed.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/watchdog.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

TEST(Registry, SnapshotIsSortedAndSearchable) {
  obs::Registry reg;
  std::uint64_t hits = 7;
  double load = 0.25;
  sim::OnlineStats lat;
  lat.add(1.0);
  lat.add(3.0);
  reg.gauge("z/cpu_load", [&] { return load; });
  reg.counter("a/hits", [&] { return hits; });
  reg.distribution("m/latency", [&] { return lat; });
  ASSERT_EQ(reg.size(), 3u);

  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].path, "a/hits");
  EXPECT_EQ(snap.samples[1].path, "m/latency");
  EXPECT_EQ(snap.samples[2].path, "z/cpu_load");

  const obs::Sample* s = snap.find("a/hits");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 7u);
  s = snap.find("m/latency");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 2u);
  EXPECT_DOUBLE_EQ(s->value, 2.0);
  EXPECT_EQ(snap.find("missing"), nullptr);

  // Probes are live: the next snapshot sees the new values.
  hits = 9;
  load = 0.5;
  EXPECT_EQ(reg.snapshot().find("a/hits")->count, 9u);
  EXPECT_DOUBLE_EQ(reg.snapshot().find("z/cpu_load")->value, 0.5);
}

TEST(Registry, ReRegisteringAPathReplacesTheProbe) {
  obs::Registry reg;
  reg.counter("x", [] { return std::uint64_t{1}; });
  reg.counter("x", [] { return std::uint64_t{2}; });
  ASSERT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.snapshot().find("x")->count, 2u);
}

TEST(Registry, RenderingHandlesNonFiniteAndEscapes) {
  obs::Registry reg;
  reg.gauge("bad\"name", [] { return std::nan(""); });
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"bad\\\"name\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":\"nan\""), std::string::npos);
  const std::string csv = reg.snapshot().to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "path,kind,value,count,min,max,stddev");
}

// One full transfer with every metric registered; returns the rendered
// snapshot so runs can be compared byte-for-byte.
std::string traced_run_json(obs::TraceSink* sink) {
  core::Testbed tb;
  if (sink != nullptr) tb.set_trace_sink(sink);
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 300;
  EXPECT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  obs::Registry reg;
  tb.register_metrics(reg);
  return reg.snapshot().to_json() + "\n@" + std::to_string(tb.now());
}

TEST(Registry, TestbedSnapshotIsDeterministicAcrossRuns) {
  const std::string first = traced_run_json(nullptr);
  const std::string second = traced_run_json(nullptr);
  EXPECT_EQ(first, second);
  // Sanity: the testbed actually exposed the interesting counters.
  EXPECT_NE(first.find("a/tcp/flow1/bytes_acked"), std::string::npos);
  EXPECT_NE(first.find("link/a<->b/frames_delivered"), std::string::npos);
  EXPECT_NE(first.find("b/nic0/rx_frames"), std::string::npos);
}

// Connection-lifecycle counters only appear on hosts that listen (or opt in
// via set_lifecycle_metrics), so the golden fig6/sim_core snapshots never
// grow new paths. This test covers the other side of that bargain: when a
// bench *does* drive a Listener, the lifecycle counters must flow through
// the --json envelope as schema-valid integer counters.
TEST(Registry, LifecycleCountersFlowThroughBenchJson) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& client = tb.add_host("client", hw::presets::pe2650(), tuning);
  auto& server = tb.add_host("server", hw::presets::pe2650(), tuning);
  tb.connect(client, server);
  core::churn::Options opt;
  opt.connections = 30;
  opt.arrival_rate_hz = 2000.0;
  opt.max_bytes = 32768;
  const core::churn::Result res = core::churn::run(tb, client, server, opt);
  ASSERT_EQ(res.completed, 30u);
  ASSERT_TRUE(res.conserved());

  obs::Registry reg;
  tb.register_metrics(reg);
  const obs::Snapshot snap = reg.snapshot();
  const obs::Sample* opens = snap.find("client/conn_opens");
  ASSERT_NE(opens, nullptr);
  EXPECT_EQ(opens->count, 30u);
  const obs::Sample* accepted = snap.find("server/listener/accepted");
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->count, 30u);
  EXPECT_NE(snap.find("server/conn_opens"), nullptr);
  EXPECT_NE(snap.find("server/conn_closes"), nullptr);
  EXPECT_NE(snap.find("server/listener/half_open"), nullptr);

  // Route the snapshot through ResultLog exactly as a bench --json run
  // would, then check the written file by hand against the contract that
  // scripts/check_bench_schema.py enforces: counters are bare integers.
  const char* out_path = "lifecycle_snapshot.json";
  std::string json_flag = std::string("--json=") + out_path;
  char arg0[] = "test_obs";
  char* argv[] = {arg0, json_flag.data()};
  bench::ResultLog& log = bench::ResultLog::instance();
  ASSERT_EQ(log.consume_json_flag(2, argv), 1);
  log.add_snapshot("churn-lan", snap);
  ASSERT_TRUE(log.write());

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string file = buf.str();
  EXPECT_NE(file.find("\"schema\":\"xgbe-bench/3\""), std::string::npos);
  EXPECT_NE(file.find("\"label\":\"churn-lan\""), std::string::npos);
  EXPECT_NE(file.find("\"path\":\"server/listener/accepted\","
                      "\"kind\":\"counter\",\"value\":30}"),
            std::string::npos);
  EXPECT_NE(file.find("\"path\":\"client/conn_opens\","
                      "\"kind\":\"counter\",\"value\":30}"),
            std::string::npos);
  std::remove(out_path);
}

TEST(ResultLog, ScrapePeriodAcceptsOnlyPositiveWholeMicroseconds) {
  EXPECT_EQ(bench::parse_scrape_period_usec("5000"), sim::usec(5000));
  EXPECT_EQ(bench::parse_scrape_period_usec("1"), sim::usec(1));
  // The largest period whose picosecond count fits sim::SimTime, and one
  // past it.
  EXPECT_EQ(bench::parse_scrape_period_usec("9223372036854"),
            sim::usec(9223372036854));
  for (const char* bad : {"", "abc", "5ms", "5 ", " 5", "+5", "-5", "0",
                          "9223372036855", "10000000000000",
                          "99999999999999999999"}) {
    EXPECT_FALSE(bench::parse_scrape_period_usec(bad).has_value())
        << "'" << bad << "'";
  }
}

TEST(ResultLog, ConsumeFlagsKeepsAnInvalidScrapePeriod) {
  char arg0[] = "fleet_incast";
  char flag[] = "--scrape-period";
  char overflow[] = "10000000000000";
  char filter[] = "--benchmark_filter=x";
  char good[] = "--scrape-period=250";
  char suffixed[] = "--scrape-period=5ms";

  bench::ResultLog rejected;
  char* argv[] = {arg0, flag, overflow, filter};
  ASSERT_EQ(rejected.consume_json_flag(4, argv), 2);
  EXPECT_STREQ(argv[1], "--benchmark_filter=x");
  EXPECT_EQ(rejected.scrape_period(), 0);
  ASSERT_TRUE(rejected.bad_scrape_period().has_value());
  EXPECT_EQ(*rejected.bad_scrape_period(), "10000000000000");

  // A later valid value does not excuse an earlier invalid one.
  bench::ResultLog mixed;
  char* argv_mixed[] = {arg0, suffixed, good};
  ASSERT_EQ(mixed.consume_json_flag(3, argv_mixed), 1);
  ASSERT_TRUE(mixed.bad_scrape_period().has_value());
  EXPECT_EQ(*mixed.bad_scrape_period(), "5ms");

  bench::ResultLog accepted;
  char* argv_good[] = {arg0, good};
  ASSERT_EQ(accepted.consume_json_flag(2, argv_good), 1);
  EXPECT_EQ(accepted.scrape_period(), sim::usec(250));
  EXPECT_FALSE(accepted.bad_scrape_period().has_value());
}

TEST(Trace, ArmingASinkDoesNotPerturbTheSimulation) {
  // The emission sites are pointer-gated and consume no randomness: a traced
  // run must match an untraced one byte-for-byte (metrics and sim clock).
  obs::TraceSink sink(512);
  const std::string untraced = traced_run_json(nullptr);
  const std::string traced = traced_run_json(&sink);
  EXPECT_EQ(untraced, traced);
  EXPECT_GT(sink.recorded(), 0u);
}

TEST(Trace, RingRetainsTheTailInOrder) {
  obs::TraceSink sink(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    obs::TraceEvent ev;
    ev.type = obs::EventType::kSegTx;
    ev.seq = i;
    sink.record(ev);
  }
  EXPECT_EQ(sink.offered(), 10u);
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.event(0).seq, 6u);  // oldest retained
  EXPECT_EQ(sink.event(3).seq, 9u);  // newest
  const auto tail = sink.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 8u);
  EXPECT_EQ(tail[1].seq, 9u);
  const auto all = sink.tail(100);  // clamped to what's retained
  ASSERT_EQ(all.size(), 4u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.tail(5).empty());
}

TEST(Trace, FilterSeparatesOfferedFromRecorded) {
  obs::TraceSink sink(16);
  sink.filter = [](const obs::TraceEvent& ev) {
    return ev.type == obs::EventType::kRto;
  };
  obs::TraceEvent rto;
  rto.type = obs::EventType::kRto;
  obs::TraceEvent tx;
  tx.type = obs::EventType::kSegTx;
  sink.record(tx);
  sink.record(rto);
  sink.record(tx);
  EXPECT_EQ(sink.offered(), 3u);
  EXPECT_EQ(sink.recorded(), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.event(0).type, obs::EventType::kRto);
}

TEST(Trace, FormatTailAndJsonl) {
  obs::TraceSink sink(8);
  EXPECT_EQ(obs::format_tail(sink, 4), "");  // empty sink: no autopsy noise
  std::ostringstream jsonl;
  sink.stream_to(&jsonl);
  obs::TraceEvent ev;
  ev.at = sim::usec(3);
  ev.type = obs::EventType::kSegDrop;
  ev.src = 1;
  ev.dst = 2;
  ev.flow = 1;
  ev.seq = 100;
  ev.len = 8948;
  ev.where = "nic0";
  ev.detail = "rx-ring-full";
  sink.record(ev);
  ev.type = obs::EventType::kRto;
  ev.detail = "";
  sink.record(ev);

  const std::string tail = obs::format_tail(sink, 8);
  EXPECT_NE(tail.find("last 2 events: "), std::string::npos);
  EXPECT_NE(tail.find("seg-drop"), std::string::npos);
  EXPECT_NE(tail.find("@nic0"), std::string::npos);
  EXPECT_NE(tail.find("(rx-ring-full)"), std::string::npos);
  EXPECT_NE(tail.find(" | "), std::string::npos);
  EXPECT_NE(tail.find("rto"), std::string::npos);

  const std::string lines = jsonl.str();
  EXPECT_NE(lines.find("\"type\":\"seg-drop\""), std::string::npos);
  EXPECT_NE(lines.find("\"detail\":\"rx-ring-full\""), std::string::npos);
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
}

TEST(Trace, FlightRecorderFeedsWatchdogAutopsy) {
  sim::Simulator sim;
  std::function<void()> spin = [&]() { sim.schedule(sim::usec(10), spin); };
  sim.schedule(0, spin);

  obs::TraceSink sink(16);
  obs::TraceEvent ev;
  ev.type = obs::EventType::kRingStall;
  ev.where = "nic0";
  ev.detail = "rx-ring";
  sink.record(ev);

  sim::Watchdog::Options opt;
  opt.interval = sim::msec(10);
  opt.stalled_ticks = 3;
  sim::Watchdog dog(sim, opt);
  std::uint64_t progress = 0;
  dog.watch_progress("bytes", [&]() { return progress; });
  obs::attach_flight_recorder(dog, sink, 8);
  dog.arm();
  sim.run_until(sim::sec(5));
  ASSERT_TRUE(dog.tripped());
  EXPECT_NE(dog.diagnosis().find("flight-recorder"), std::string::npos);
  EXPECT_NE(dog.diagnosis().find("ring-stall"), std::string::npos);
}

TEST(DriveFlows, DeadPathReportsZeroInsteadOfDividingByZero) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);
  std::vector<core::Testbed::Connection> conns;
  conns.push_back(
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config()));
  ASSERT_TRUE(tb.run_until_established(conns[0]));

  // Carrier dies before the measurement: nothing will ever be consumed.
  fault::FaultPlan dead;
  dead.flaps.push_back(fault::LinkFlap{tb.now(), -1});
  wire.set_fault_plan(dead);

  bool progressed = true;
  const double gbps = bench::drive_flows_gbps(tb, conns, sim::msec(5),
                                              sim::msec(20), &progressed);
  EXPECT_EQ(gbps, 0.0);
  EXPECT_FALSE(progressed);
  EXPECT_TRUE(std::isfinite(gbps));
}

TEST(DriveFlows, HealthyPathStillMeasures) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  std::vector<core::Testbed::Connection> conns;
  conns.push_back(
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config()));
  bool progressed = false;
  const double gbps = bench::drive_flows_gbps(tb, conns, sim::msec(5),
                                              sim::msec(20), &progressed);
  EXPECT_GT(gbps, 1.0);
  EXPECT_TRUE(progressed);
}

}  // namespace
}  // namespace xgbe
