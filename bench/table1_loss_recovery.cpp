// Table 1: time to recover from a single packet loss.
//
// Paper reference (10 Gb/s end-to-end assumption):
//   LAN                 RTT ~us    MSS 1460  -> milliseconds
//   Geneva - Chicago    RTT 120ms  MSS 1460  -> ~1 hr 42 min
//   Geneva - Chicago    RTT 120ms  MSS 8960  -> ~17 min
//   Geneva - Sunnyvale  RTT 180ms  MSS 1460  -> ~3 hr 51 min
//   Geneva - Sunnyvale  RTT 180ms  MSS 8960  -> ~38 min
//
// The analytic rows implement the AIMD recovery model; the validation
// benchmark injects one real loss into a scaled-down simulated WAN and
// compares the measured recovery time against the same formula.
#include <cstdio>

#include "analysis/aimd.hpp"
#include "bench/common.hpp"

namespace {

void Table1_RecoveryModel(benchmark::State& state) {
  const auto rows = xgbe::analysis::table1_scenarios();
  const auto& row = rows.at(static_cast<std::size_t>(state.range(0)));
  double seconds = 0.0;
  for (auto _ : state) {
    seconds = xgbe::analysis::recovery_time_s(row.bandwidth_bps, row.rtt_s,
                                              row.mss_bytes);
  }
  state.SetLabel(row.path + " / MSS " + std::to_string(row.mss_bytes) +
                 " -> " + xgbe::analysis::format_duration(seconds));
  state.counters["rtt_ms"] = row.rtt_s * 1e3;
  state.counters["mss_B"] = row.mss_bytes;
  state.counters["window_segs"] = xgbe::analysis::window_segments(
      row.bandwidth_bps, row.rtt_s, row.mss_bytes);
  state.counters["recovery_s"] = seconds;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name(
                 "Table1_RecoveryModel",
                 {{"row", static_cast<std::int64_t>(state.range(0))}}));
}

// Live validation on a scaled path (20 ms RTT, OC-48 bottleneck) so the
// simulation completes in seconds. The congestion window is clamped at the
// path BDP — the Table 1 premise ("the congestion window size is equal to
// the bandwidth-delay product when the packet is lost") — one loss is
// injected in steady state, and we measure the time for the window to
// regain the clamp at one segment per RTT.
void Table1_LiveValidation(benchmark::State& state) {
  double measured_s = 0.0;
  double predicted_s = 0.0;
  for (auto _ : state) {
    xgbe::core::Testbed tb;
    const double rtt_s = 0.020;
    const double km = rtt_s / 2.0 * 1e12 / xgbe::link::wan::kFiberPsPerKm;
    const auto tuning = xgbe::core::TuningProfile::wan(48u * 1024 * 1024);
    auto& a = tb.add_host("a", xgbe::hw::presets::wan_endpoint(), tuning);
    auto& b = tb.add_host("b", xgbe::hw::presets::wan_endpoint(), tuning);
    auto circuits =
        tb.build_wan_path(a, b, {xgbe::link::wan::oc48_pos(km)},
                          xgbe::link::wan::router_spec());
    auto cfg = xgbe::tools::iperf_config(a.endpoint_config());
    cfg.read_chunk = 1 << 20;
    auto conn = tb.open_connection(a, b, cfg, cfg);
    tb.run_until_established(conn);

    const double oc48_payload = 2.39e9;
    const std::uint32_t mss = conn.client->mss_payload();
    const auto clamp = static_cast<std::uint32_t>(
        xgbe::analysis::window_segments(oc48_payload, rtt_s, mss));
    conn.client->set_cwnd_clamp(clamp);
    predicted_s = rtt_s * clamp / 2.0;

    auto writer = std::make_shared<std::function<void()>>();
    auto* client = conn.client;
    *writer = [writer, client]() {
      client->app_send(262144, [writer]() { (*writer)(); });
    };
    (*writer)();
    tb.run_for(xgbe::sim::sec(5));  // slow start to the clamp, settle

    // Phase machine over the cwnd trace: wait for the post-loss halving,
    // then for the climb back to the clamp.
    auto halved_at = std::make_shared<xgbe::sim::SimTime>(-1);
    auto recovered_at = std::make_shared<xgbe::sim::SimTime>(-1);
    conn.client->cwnd_trace = [clamp, halved_at, recovered_at](
                                  xgbe::sim::SimTime t, std::uint32_t cwnd) {
      if (*halved_at < 0) {
        if (cwnd <= clamp / 2 + 1) *halved_at = t;
      } else if (*recovered_at < 0 && cwnd >= clamp) {
        *recovered_at = t;
      }
    };
    const xgbe::sim::SimTime dropped_at = tb.now();
    circuits[0]->inject_drops(1);
    tb.run_for(xgbe::sim::from_seconds(3.0 * predicted_s + 3.0));

    measured_s = (*halved_at >= 0 && *recovered_at >= 0)
                     ? xgbe::sim::to_seconds(*recovered_at - dropped_at)
                     : -1.0;
    *writer = nullptr;  // the writer captures itself; break the cycle
  }
  state.counters["measured_s"] = measured_s;
  state.counters["predicted_s"] = predicted_s;
  state.counters["ratio"] = predicted_s > 0 ? measured_s / predicted_s : 0.0;
  xgbe::bench::log_point(state,
                         xgbe::bench::point_name("Table1_LiveValidation"));
}

}  // namespace

BENCHMARK(Table1_RecoveryModel)
    ->DenseRange(0, 4)
    ->ArgNames({"row"})
    ->Iterations(1);

BENCHMARK(Table1_LiveValidation)->Unit(benchmark::kMillisecond)->Iterations(1);

XGBE_BENCH_MAIN();
