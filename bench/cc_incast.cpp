// Congestion-control zoo on the incast collapse: the same overdriven
// many-to-one workload as fleet_incast, run once under NewReno against
// tail-drop ToRs and once under DCTCP against an ECN-threshold (K) ToR
// AQM. DCTCP's proportional cwnd cut keeps the synchronized burst under
// the aggregator's shallow egress buffer, so the gated comparison pins the
// paper-era claim the zoo exists to demonstrate: ECN-based control slashes
// aggregator-port tail drops while the byte ledger stays exactly
// conserved. All counters are deterministic and gated against
// bench/golden/cc_incast.json; wall-clock counters are recorded but never
// gated.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "bench/common.hpp"
#include "core/fabric.hpp"
#include "core/fleet.hpp"
#include "tools/drop_report.hpp"

namespace {

namespace core = xgbe::core;
namespace fleet = xgbe::core::fleet;

core::FabricOptions bench_fabric(bool dctcp) {
  core::FabricOptions opt;
  opt.racks = 2;
  opt.hosts_per_rack = 3;
  opt.spines = 1;
  opt.trunks_per_spine = 2;
  // Same shallow aggregator buffer and fiber lengths as fleet_incast, so
  // the NewReno row here reproduces that bench's collapse numbers.
  opt.tor_port_buffer_bytes = 48 * 1024;
  opt.host_propagation = xgbe::sim::usec(10);
  opt.trunk_propagation = xgbe::sim::usec(20);
  if (dctcp) {
    opt.cc = xgbe::tcp::CcAlgorithm::kDctcp;
    opt.ecn = true;
    // DCTCP "K": mark past a third of the port buffer. Small enough that
    // senders back off well before tail drop, large enough to keep the
    // aggregator port busy.
    opt.tor_aqm.mode = xgbe::link::AqmMode::kEcnThreshold;
    opt.tor_aqm.mark_threshold_bytes = 16 * 1024;
  }
  return opt;
}

void Cc_Incast(benchmark::State& state) {
  const bool dctcp = state.range(0) != 0;

  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t port_drops = 0;
  std::uint64_t ce_marked = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fp = 0;
  bool conserved = false;
  bool completed = false;
  double wall_s = 0.0;
  for (auto _ : state) {
    core::Fabric fabric(bench_fabric(dctcp));
    fleet::Options opt;
    opt.scenario = fleet::Scenario::kIncast;
    opt.incast_bytes = 64 * 1024;
    opt.incast_rounds = 6;
    const auto t0 = std::chrono::steady_clock::now();
    const fleet::Result res = fleet::run(fabric, opt);
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    xgbe::tools::DropReport ledger;
    ledger.add_testbed(fabric.testbed());
    offered = ledger.offered;
    delivered = ledger.delivered;
    drops = ledger.total_drops();
    port_drops = fabric.tor(0).port_dropped_queue_full(0);
    ce_marked = fabric.tor(0).ce_marked();
    bytes = res.bytes_consumed;
    conserved = ledger.conserved();
    completed = res.completed;
    fp = fabric.fingerprint();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(offered));

  // Deterministic counters — gated against bench/golden/cc_incast.json.
  state.counters["dctcp"] = dctcp ? 1.0 : 0.0;
  state.counters["offered"] = static_cast<double>(offered);
  state.counters["delivered"] = static_cast<double>(delivered);
  state.counters["drops"] = static_cast<double>(drops);
  state.counters["agg_port_drops"] = static_cast<double>(port_drops);
  state.counters["ce_marked"] = static_cast<double>(ce_marked);
  state.counters["bytes_consumed"] = static_cast<double>(bytes);
  state.counters["conserved"] = conserved ? 1.0 : 0.0;
  state.counters["completed"] = completed ? 1.0 : 0.0;
  // A 64-bit hash does not round-trip through a double; halves do, exactly.
  state.counters["fingerprint_hi"] = static_cast<double>(fp >> 32);
  state.counters["fingerprint_lo"] = static_cast<double>(fp & 0xffffffffu);

  xgbe::bench::log_point(
      state,
      xgbe::bench::point_name("Cc_Incast", {{"dctcp", dctcp ? 1 : 0}}));
  // Machine-dependent: printed on the console, kept out of the JSON log.
  state.counters["wall_ms"] = wall_s * 1e3;
}

}  // namespace

BENCHMARK(Cc_Incast)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

XGBE_BENCH_MAIN();
