// Fleet fault-matrix suite: fabric topology, scenario matrix, and
// tools::fleet_doctor localization.
//
// The contract under test, end to end:
//  - a clean fabric runs the whole scenario matrix with a conserved ledger
//    and a silent doctor;
//  - every catalogue fault, run through the same matrix, is localized to
//    the exact component (the fabric's canonical name) with the right
//    cause class;
//  - verdicts are bit-identical across reruns and shard counts, and ECMP
//    path choice never depends on the partition;
//  - overdriving the incast past the ToR port buffer collapses visibly in
//    the per-port counters while the fleet-wide ledger stays exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "core/fleet.hpp"
#include "obs/registry.hpp"
#include "tools/drop_report.hpp"
#include "tools/fleet_doctor.hpp"

namespace {

using xgbe::core::Fabric;
using xgbe::core::FabricOptions;
using xgbe::fault::FleetFault;
using xgbe::fault::FleetPlan;
using xgbe::tools::FleetDoctorOptions;
using xgbe::tools::FleetDoctorReport;
using xgbe::tools::run_fleet_doctor;
namespace fleet = xgbe::core::fleet;
namespace sim = xgbe::sim;
namespace obs = xgbe::obs;

/// 2 racks x 3 hosts, 1 spine, 2-trunk bundles, sharded. Propagation is
/// kept long-ish: it is also the engine lookahead, so it bounds how many
/// barrier windows a simulated second costs.
FabricOptions test_fabric(std::size_t shards = 2) {
  FabricOptions o;
  o.racks = 2;
  o.hosts_per_rack = 3;
  o.spines = 1;
  o.trunks_per_spine = 2;
  o.shards = shards;
  o.host_propagation = sim::usec(10);
  o.trunk_propagation = sim::usec(20);
  return o;
}

FleetDoctorReport run_matrix(const FabricOptions& fabric) {
  FleetDoctorOptions opt;
  opt.fabric = fabric;  // empty scenario list = the canonical three
  return run_fleet_doctor(opt);
}

void expect_conserved(const FleetDoctorReport& rep, const std::string& label) {
  EXPECT_TRUE(rep.ledger.conserved())
      << label << "\n"
      << rep.ledger.render();
  EXPECT_TRUE(rep.ledger.connections_conserved())
      << label << "\n"
      << rep.ledger.render();
}

TEST(FleetDoctor, CleanMatrixIsSilent) {
  const FleetDoctorReport rep = run_matrix(test_fabric());
  ASSERT_EQ(rep.scenarios.size(), 3u);
  for (const auto& s : rep.scenarios) {
    EXPECT_TRUE(s.completed) << s.name << " consumed " << s.bytes_consumed
                             << "/" << s.bytes_expected;
  }
  expect_conserved(rep, "clean matrix");
  EXPECT_TRUE(rep.verdict.clean()) << rep.verdict.render();
}

TEST(FleetDoctor, LocalizesEveryCatalogueFault) {
  struct Cell {
    const char* label;
    FleetPlan plan;
    std::string component;
    std::string cause;
  };
  std::vector<Cell> matrix;
  {
    Cell c;
    c.label = "bad cable on a trunk";
    c.plan.bad_cable_trunk(/*rack=*/1, /*spine=*/0, /*trunk=*/0);
    c.component = "trunk-tor1-spine0-0";
    c.cause = "bad-cable";
    matrix.push_back(c);
  }
  {
    Cell c;
    c.label = "flapping trunk";
    c.plan.flapping_trunk(/*rack=*/1, /*spine=*/0, /*trunk=*/1);
    c.component = "trunk-tor1-spine0-1";
    c.cause = "carrier-flap";
    matrix.push_back(c);
  }
  {
    Cell c;
    c.label = "half-speed trunk";
    c.plan.half_speed_trunk(/*rack=*/0, /*spine=*/0, /*trunk=*/1, 5e9);
    c.component = "trunk-tor0-spine0-1";
    c.cause = "half-speed-link";
    matrix.push_back(c);
  }
  {
    Cell c;
    c.label = "DMA-throttled straggler host";
    c.plan.dma_throttled_host(/*rack=*/1, /*host=*/1, sim::msec(1),
                              sim::msec(60));
    c.component = "r1h1";
    c.cause = "host-dma-throttle";
    matrix.push_back(c);
  }
  {
    Cell c;
    c.label = "bad cable on an access link";
    c.plan.bad_cable_host_link(/*rack=*/0, /*host=*/2);
    c.component = "r0h2-tor0";
    c.cause = "bad-cable";
    matrix.push_back(c);
  }

  for (const Cell& cell : matrix) {
    FabricOptions fabric = test_fabric();
    fabric.faults = cell.plan;
    const FleetDoctorReport rep = run_matrix(fabric);
    // The canonical component name the plan targets (checked through the
    // fabric so a naming drift fails loudly here, not silently in docs).
    const Fabric named(test_fabric());
    ASSERT_EQ(cell.plan.faults.size(), 1u);
    EXPECT_EQ(named.fault_component(cell.plan.faults[0]), cell.component);

    expect_conserved(rep, cell.label);
    ASSERT_FALSE(rep.verdict.clean())
        << cell.label << ": doctor saw nothing\n"
        << rep.transcript();
    const xgbe::tools::Finding& top = rep.verdict.findings.front();
    EXPECT_EQ(top.component, cell.component)
        << cell.label << "\n"
        << rep.verdict.render();
    EXPECT_EQ(top.cause, cell.cause) << cell.label << "\n"
                                     << rep.verdict.render();
  }
}

TEST(FleetDoctor, VerdictBitIdenticalAcrossPartitionsAndReruns) {
  fleet::Options incast;
  incast.scenario = fleet::Scenario::kIncast;

  std::string base_verdict;
  std::string base_transcript;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 3u}) {
    FleetDoctorOptions opt;
    opt.fabric = test_fabric(shards);
    opt.fabric.faults.half_speed_trunk(1, 0, 0, 5e9);
    opt.scenarios = {incast};
    const FleetDoctorReport rep = run_fleet_doctor(opt);
    const std::string label = "shards=" + std::to_string(shards);
    if (first) {
      first = false;
      base_verdict = rep.verdict.to_json();
      base_transcript = rep.transcript();
      EXPECT_FALSE(rep.verdict.clean()) << rep.transcript();
    } else {
      EXPECT_EQ(rep.verdict.to_json(), base_verdict) << label;
      EXPECT_EQ(rep.transcript(), base_transcript) << label;
    }
  }
  // Rerun of the base configuration: same session, same verdict.
  FleetDoctorOptions opt;
  opt.fabric = test_fabric(1);
  opt.fabric.faults.half_speed_trunk(1, 0, 0, 5e9);
  opt.scenarios = {incast};
  const FleetDoctorReport again = run_fleet_doctor(opt);
  EXPECT_EQ(again.verdict.to_json(), base_verdict) << "rerun";
  EXPECT_EQ(again.transcript(), base_transcript) << "rerun";
}

TEST(Fabric, EcmpPathChoiceIsPartitionInvariant) {
  // Same fabric, same scenario, different shard counts: every trunk must
  // carry the exact same frame counts — the ECMP hash may depend only on
  // packet fields and table order, never on where components landed.
  fleet::Options a2a;
  a2a.scenario = fleet::Scenario::kAllToAll;

  std::vector<std::uint64_t> base_counts;
  std::uint64_t base_fp = 0;
  for (const std::size_t shards : {1u, 2u, 3u}) {
    Fabric fabric(test_fabric(shards));
    const fleet::Result res = fleet::run(fabric, a2a);
    EXPECT_TRUE(res.completed) << "shards=" << shards;
    std::vector<std::uint64_t> counts;
    for (std::size_t r = 0; r < fabric.racks(); ++r) {
      for (std::size_t k = 0; k < fabric.options().trunks_per_spine; ++k) {
        counts.push_back(fabric.trunk(r, 0, k).frames_delivered());
      }
    }
    const std::uint64_t fp = fabric.fingerprint();
    if (shards == 1) {
      base_counts = counts;
      base_fp = fp;
      // The hash must actually spread flows: with 12 flows over 2-trunk
      // bundles, every trunk should have seen traffic.
      for (std::size_t i = 0; i < counts.size(); ++i) {
        EXPECT_GT(counts[i], 0u) << "trunk " << i << " never used — ECMP "
                                 << "degenerated to a single path";
      }
    } else {
      EXPECT_EQ(counts, base_counts) << "shards=" << shards;
      EXPECT_EQ(fp, base_fp) << "shards=" << shards;
    }
  }
}

TEST(Fabric, OverdrivenIncastCollapsesAtTheTorPort) {
  // Push the synchronized rounds past the ToR egress buffer: with a shallow
  // 48 KiB port (commodity-switch territory) the 5-worker synchronized burst
  // overflows the aggregator's 4:1-oversubscribed access port, while the
  // milder 3:2 trunk funnel at tor1 stays inside its buffer. The collapse must be
  // visible in the per-port counters, the ledger must still balance to the
  // frame, and the doctor must call it incast-collapse at that port.
  FabricOptions fopt = test_fabric();
  fopt.tor_port_buffer_bytes = 48 * 1024;
  Fabric fabric(fopt);
  // Several rounds so slow start opens the workers' windows: the early
  // rounds are cwnd-limited, the later ones arrive as full-size bursts.
  fleet::Options incast;
  incast.scenario = fleet::Scenario::kIncast;
  incast.incast_bytes = 64 * 1024;
  incast.incast_rounds = 6;
  const fleet::Result res = fleet::run(fabric, incast);
  EXPECT_TRUE(res.completed) << "TCP must recover the tail drops; consumed "
                             << res.bytes_consumed << "/"
                             << res.bytes_expected;

  // Port 0 of tor0 is the first access link wired: the aggregator's.
  auto& tor = fabric.tor(0);
  ASSERT_EQ(tor.port_link_name(0), "r0h0-tor0");
  EXPECT_GT(tor.port_dropped_queue_full(0), 0u)
      << "overdriven incast did not overflow the ToR port";
  EXPECT_GT(tor.port_peak_queued(0), 0u);
  EXPECT_LE(tor.port_peak_queued(0), fopt.tor_port_buffer_bytes);

  xgbe::tools::DropReport ledger;
  ledger.add_testbed(fabric.testbed());
  EXPECT_TRUE(ledger.conserved()) << ledger.render();

  obs::Registry reg;
  fabric.register_metrics(reg);
  xgbe::tools::MetricMap merged;
  xgbe::tools::accumulate(merged, reg.snapshot());
  const auto verdict = xgbe::tools::diagnose(merged, ledger);
  ASSERT_FALSE(verdict.clean());
  EXPECT_EQ(verdict.findings.front().component, "tor0:r0h0-tor0")
      << verdict.render();
  EXPECT_EQ(verdict.findings.front().cause, "incast-collapse")
      << verdict.render();
}

TEST(FleetScenarios, ListenerBacklogPeaksAreObservable) {
  // The RPC-churn scenario exercises the server's listener; its SYN/accept
  // backlog high-water marks must surface as registry gauges and in the
  // drop-report rendering (opt-in by listener presence, so topologies
  // without a listener keep byte-identical snapshots).
  Fabric fabric(test_fabric());
  fleet::Options rpc;
  rpc.scenario = fleet::Scenario::kRpcChurn;
  const fleet::Result res = fleet::run(fabric, rpc);
  EXPECT_TRUE(res.rpc.conserved());
  EXPECT_GT(res.rpc.completed, 0u);

  obs::Registry reg;
  fabric.register_metrics(reg);
  const obs::Snapshot snap = reg.snapshot();
  const obs::Sample* peak = snap.find("r1h2/listener/half_open_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_GT(peak->value, 0.0);
  const obs::Sample* aq_peak = snap.find("r1h2/listener/accept_queue_peak");
  ASSERT_NE(aq_peak, nullptr);  // on_accept dispatches immediately: stays 0

  xgbe::tools::DropReport ledger;
  ledger.add_testbed(fabric.testbed());
  EXPECT_NE(ledger.render().find("listener r1h2:"), std::string::npos)
      << ledger.render();
}

}  // namespace
