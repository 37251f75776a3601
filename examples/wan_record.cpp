// Reproduces the Internet2 Land Speed Record experiment (§4, Fig 9): a
// single TCP stream from Sunnyvale to Geneva over a loaned OC-192 to
// Chicago and the transatlantic LHCnet OC-48 — plus the counterfactual the
// paper warns about (oversized buffers -> congestion loss -> AIMD collapse).
#include <cstdint>
#include <cstdio>
#include <vector>
#include <utility>

#include "analysis/aimd.hpp"
#include "analysis/bdp.hpp"
#include "core/testbed.hpp"
#include "link/wan.hpp"
#include "obs/span.hpp"
#include "tools/iperf.hpp"

namespace {

struct WanOutcome {
  double gbps = 0.0;
  double rtt_ms = 0.0;
  std::uint64_t retransmits = 0;
  std::uint64_t router_drops = 0;   // full router port queues
  std::uint64_t circuit_drops = 0;  // full circuit transmit queues
  std::vector<std::pair<xgbe::sim::SimTime, std::uint32_t>> cwnd_timeline;
};

WanOutcome run_wan(std::uint32_t buffer_bytes) {
  using namespace xgbe;
  core::Testbed tb;
  const auto tuning = core::TuningProfile::wan(buffer_bytes);
  auto& sunnyvale = tb.add_host("sunnyvale", hw::presets::wan_endpoint(),
                                tuning);
  auto& geneva = tb.add_host("geneva", hw::presets::wan_endpoint(), tuning);
  auto circuits = tb.build_wan_path(
      sunnyvale, geneva,
      {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm),
       link::wan::oc48_pos(link::wan::kChicagoGenevaKm)},
      link::wan::router_spec());

  // Armed before the connection opens, so it watches the sender.
  obs::FlowSampler cwnd(sim::msec(500));
  tb.set_flow_sampler(&cwnd);
  auto cfg = tools::iperf_config(sunnyvale.endpoint_config());
  cfg.read_chunk = 1 << 20;
  auto conn = tb.open_connection(sunnyvale, geneva, cfg, cfg);

  tools::IperfOptions opt;
  opt.write_size = 256 * 1024;
  opt.warmup = sim::sec(8);    // slow start needs ~45 RTTs at 176 ms
  opt.duration = sim::sec(4);  // steady-state measurement window
  const auto r = tools::run_iperf(tb, conn, sunnyvale, geneva, opt);
  cwnd.stop();

  WanOutcome out;
  out.gbps = r.throughput_gbps();
  out.rtt_ms = sim::to_microseconds(conn.client->srtt()) / 1e3;
  out.retransmits = conn.client->stats().retransmits;
  // The circuits' transmit queues are unlimited by default, so congestion
  // overflows the routers' port buffers instead.
  for (auto* c : circuits) out.circuit_drops += c->drops_queue();
  for (std::size_t i = 0; i < tb.switch_count(); ++i) {
    out.router_drops += tb.switch_at(i).dropped_queue_full();
  }
  for (const auto& row : cwnd.rows()) {
    out.cwnd_timeline.emplace_back(row.at, row.sample.cwnd_segments);
  }
  return out;
}

}  // namespace

int main() {
  const double bdp_mb = xgbe::analysis::bdp_bytes(2.4e9, 0.176) / 1e6;
  std::printf("Sunnyvale -> Geneva: 17,900 routed km, OC-48 bottleneck\n");
  std::printf("bandwidth-delay product: %.1f MB\n\n", bdp_mb);

  std::printf("-- buffers ~= BDP (the record configuration) --\n");
  const WanOutcome good = run_wan(80u * 1024 * 1024);
  std::printf("  throughput : %.3f Gb/s (paper: 2.38 Gb/s)\n", good.gbps);
  std::printf("  efficiency : %.1f%% of the OC-48 payload rate\n",
              good.gbps / 2.40 * 100.0);
  std::printf("  RTT        : %.1f ms, retransmits: %llu\n", good.rtt_ms,
              static_cast<unsigned long long>(good.retransmits));
  if (good.gbps > 0) {
    std::printf("  a terabyte : %.0f minutes\n",
                8e12 / (good.gbps * 1e9) / 60.0);
  }
  std::printf("  slow-start trajectory (cwnd in segments):\n    ");
  for (std::size_t i = 0; i < good.cwnd_timeline.size() && i < 16; i += 2) {
    std::printf("%.1fs:%u  ",
                xgbe::sim::to_seconds(good.cwnd_timeline[i].first),
                good.cwnd_timeline[i].second);
  }
  std::printf("\n");

  std::printf("\n-- buffers far above BDP (the failure mode, §4.2) --\n");
  const WanOutcome bad = run_wan(256u * 1024 * 1024);
  std::printf("  throughput : %.3f Gb/s\n", bad.gbps);
  std::printf(
      "  congestion drops: %llu (router queues %llu, circuits %llu), "
      "retransmits: %llu\n",
      static_cast<unsigned long long>(bad.router_drops + bad.circuit_drops),
      static_cast<unsigned long long>(bad.router_drops),
      static_cast<unsigned long long>(bad.circuit_drops),
      static_cast<unsigned long long>(bad.retransmits));
  std::printf(
      "  after one loss at this BDP, AIMD needs %s to recover (Table 1)\n",
      xgbe::analysis::format_duration(
          xgbe::analysis::recovery_time_s(2.4e9, 0.176, 8948))
          .c_str());
  return 0;
}
