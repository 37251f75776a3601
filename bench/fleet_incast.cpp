// Fleet incast collapse: the canonical overdriven many-to-one workload on
// the two-rack fabric, driven past the aggregator's shallow ToR egress
// buffer. The paper's single-switch story (Fig 2b) scales badly exactly
// here — N senders synchronized onto one 10 GbE port — so this bench pins
// the collapse numbers: frames offered/delivered, tail drops at the
// aggregator's access port, exact ledger conservation, and the registry
// fingerprint. All of those are deterministic and gated against
// bench/golden/fleet_incast.json; wall-clock counters are recorded but
// never gated.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>

#include "bench/common.hpp"
#include "core/fabric.hpp"
#include "core/fleet.hpp"
#include "obs/detect.hpp"
#include "obs/scrape.hpp"
#include "tools/drop_report.hpp"

namespace {

namespace core = xgbe::core;
namespace fleet = xgbe::core::fleet;

core::FabricOptions bench_fabric(std::size_t shards) {
  core::FabricOptions opt;
  opt.racks = 2;
  opt.hosts_per_rack = 3;
  opt.spines = 1;
  opt.trunks_per_spine = 2;
  opt.shards = shards;
  // Shallow commodity access buffer so the 5-worker synchronized burst
  // overflows; uplinks keep the deep default so the collapse stays at the
  // aggregator port. Longer fibers widen the engine's lookahead windows.
  opt.tor_port_buffer_bytes = 48 * 1024;
  opt.host_propagation = xgbe::sim::usec(10);
  opt.trunk_propagation = xgbe::sim::usec(20);
  return opt;
}

void Fleet_Incast(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  // Time-resolved telemetry (`--scrape-period <usec>`): a build-time
  // registry over the fabric's infrastructure, scraped at the requested
  // cadence while the scenario runs. Arming changes nothing downstream —
  // the simulation counters and fingerprint are bit-identical to an
  // unarmed run (CI diffs the two envelopes to prove it).
  const xgbe::sim::SimTime scrape_period =
      xgbe::bench::ResultLog::instance().scrape_period();

  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t port_drops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fp = 0;
  bool conserved = false;
  bool completed = false;
  double wall_s = 0.0;
  std::unique_ptr<xgbe::obs::Registry> scrape_reg;
  std::unique_ptr<xgbe::obs::MetricScraper> scraper;
  std::vector<xgbe::obs::detect::Episode> episodes;
  for (auto _ : state) {
    core::Fabric fabric(bench_fabric(shards));
    fleet::Options opt;
    opt.scenario = fleet::Scenario::kIncast;
    opt.incast_bytes = 64 * 1024;
    opt.incast_rounds = 6;
    if (scrape_period > 0) {
      scraper.reset();
      scrape_reg = std::make_unique<xgbe::obs::Registry>();
      fabric.register_metrics(*scrape_reg);
      xgbe::obs::ScrapeOptions so;
      so.period = scrape_period;
      // The incast story lives in the switch subtree (port occupancy and
      // tail drops at the aggregator's ToR egress); restricting the scrape
      // keeps the --json envelope golden-sized. Host and link probes are
      // still sampled by the obs tests.
      so.prefixes = {"switch/"};
      scraper =
          std::make_unique<xgbe::obs::MetricScraper>(*scrape_reg, so);
      opt.scraper = scraper.get();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const fleet::Result res = fleet::run(fabric, opt);
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    if (scraper != nullptr) {
      episodes = xgbe::obs::detect::run_detectors(scraper->store());
    }
    xgbe::tools::DropReport ledger;
    ledger.add_testbed(fabric.testbed());
    offered = ledger.offered;
    delivered = ledger.delivered;
    drops = ledger.total_drops();
    port_drops = fabric.tor(0).port_dropped_queue_full(0);
    bytes = res.bytes_consumed;
    conserved = ledger.conserved();
    completed = res.completed;
    fp = fabric.fingerprint();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(offered));

  // Deterministic counters — gated against bench/golden/fleet_incast.json.
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["offered"] = static_cast<double>(offered);
  state.counters["delivered"] = static_cast<double>(delivered);
  state.counters["drops"] = static_cast<double>(drops);
  state.counters["agg_port_drops"] = static_cast<double>(port_drops);
  state.counters["bytes_consumed"] = static_cast<double>(bytes);
  state.counters["conserved"] = conserved ? 1.0 : 0.0;
  state.counters["completed"] = completed ? 1.0 : 0.0;
  // A 64-bit hash does not round-trip through a double; halves do, exactly.
  state.counters["fingerprint_hi"] = static_cast<double>(fp >> 32);
  state.counters["fingerprint_lo"] = static_cast<double>(fp & 0xffffffffu);

  const std::string name = xgbe::bench::point_name(
      "Fleet_Incast", {{"shards", static_cast<std::int64_t>(shards)}});

  // Scrape counters — deterministic (integer series over a deterministic
  // run), so they are gated too when the golden was captured armed.
  if (scraper != nullptr) {
    const std::uint64_t scrape_fp = scraper->store().fingerprint();
    state.counters["scrape_series"] =
        static_cast<double>(scraper->store().series_count());
    state.counters["scrape_points"] =
        static_cast<double>(scraper->store().total_points());
    state.counters["scrape_episodes"] = static_cast<double>(episodes.size());
    state.counters["scrape_fp_hi"] = static_cast<double>(scrape_fp >> 32);
    state.counters["scrape_fp_lo"] =
        static_cast<double>(scrape_fp & 0xffffffffu);
    xgbe::bench::ResultLog::instance().add_scrape(
        name, scraper->scrape_json(),
        xgbe::obs::detect::episodes_json(episodes));
  }

  xgbe::bench::log_point(state, name);
  // Machine-dependent: printed on the console, kept out of the JSON log.
  state.counters["wall_ms"] = wall_s * 1e3;
}

}  // namespace

BENCHMARK(Fleet_Incast)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

XGBE_BENCH_MAIN();
