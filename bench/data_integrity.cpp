// Section 3.5.3: where should checksums be computed?
//
// Paper reference: "received TCP data should not be checksummed in the
// adapter; rather they must be computed once the data has reached the
// system's main memory. Unfortunately, current proposals for TOEs perform
// checksums in the adapter." The adapter verified the frame before it
// crossed the PCI-X and memory buses; damage on that path (heat, high bit
// rates, marginal hardware) then reaches the application silently.
//
// This bench injects in-host corruption at a configurable per-frame rate
// and compares adapter-offloaded checksums (silent corruption) against
// host-side software checksums (detected, dropped, retransmitted) — and
// prices the CPU cost of doing it in software.
#include "bench/common.hpp"
#include "fault/oracle.hpp"

namespace {

struct IntegrityResult {
  double gbps = 0.0;
  double cpu_rx = 0.0;
  std::uint64_t silent_corruptions = 0;
  std::uint64_t detected_drops = 0;
  std::uint64_t retransmits = 0;
  bool stream_intact = false;  // fault::verify_stream_integrity verdict
};

// `rate_e4` is the per-frame corruption rate in units of 1e-4.
IntegrityResult run(std::int64_t rate_e4, bool csum_offload) {
  xgbe::core::Testbed tb;
  auto tuning = xgbe::core::TuningProfile::lan_tuned(9000);
  tuning.rx_corruption_rate = static_cast<double>(rate_e4) * 1e-4;
  tuning.csum_offload = csum_offload;
  auto& a = tb.add_host("a", xgbe::hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", xgbe::hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  xgbe::tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 3000;
  opt.timeout = xgbe::sim::sec(300);
  const auto r = xgbe::tools::run_nttcp(tb, conn, a, b, opt);
  IntegrityResult out;
  out.gbps = r.throughput_gbps();
  out.cpu_rx = r.receiver_load;
  out.silent_corruptions = conn.server->stats().corrupted_delivered;
  out.detected_drops = b.kernel().csum_drops();
  out.retransmits = conn.client->stats().retransmits;
  // The same oracle the chaos soak uses: every byte delivered exactly once,
  // and (with host checksums) none of them silently damaged.
  const auto verdict = xgbe::fault::verify_stream_integrity(
      conn.client->stats(), conn.server->stats(),
      static_cast<std::uint64_t>(opt.payload) * opt.count,
      /*checksums_on=*/!csum_offload);
  out.stream_intact = verdict.ok;
  xgbe::bench::maybe_snapshot(
      xgbe::bench::point_name(
          "integrity", {{"rate_e-4", rate_e4}, {"offload", csum_offload ? 1 : 0}}),
      tb);
  return out;
}

void Integrity_AdapterChecksum(benchmark::State& state) {
  IntegrityResult r;
  for (auto _ : state) {
    r = run(state.range(0), /*csum_offload=*/true);
  }
  state.counters["Gb/s"] = r.gbps;
  state.counters["silent_corruptions"] =
      static_cast<double>(r.silent_corruptions);
  state.counters["detected"] = static_cast<double>(r.detected_drops);
  xgbe::bench::log_point(
      state, xgbe::bench::point_name(
                 "Integrity_AdapterChecksum",
                 {{"rate_e-4", state.range(0)}}));
}

void Integrity_HostChecksum(benchmark::State& state) {
  IntegrityResult r;
  for (auto _ : state) {
    r = run(state.range(0), /*csum_offload=*/false);
  }
  state.counters["Gb/s"] = r.gbps;
  state.counters["silent_corruptions"] =
      static_cast<double>(r.silent_corruptions);
  state.counters["detected"] = static_cast<double>(r.detected_drops);
  state.counters["retransmits"] = static_cast<double>(r.retransmits);
  state.counters["cpu_rx"] = r.cpu_rx;
  state.counters["stream_intact"] = r.stream_intact ? 1.0 : 0.0;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name(
                 "Integrity_HostChecksum",
                 {{"rate_e-4", state.range(0)}}));
}

}  // namespace

// Argument is the corruption rate in units of 1e-4 per frame.
BENCHMARK(Integrity_AdapterChecksum)
    ->Arg(0)
    ->Arg(5)
    ->Arg(20)
    ->ArgNames({"rate_e-4"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(Integrity_HostChecksum)
    ->Arg(0)
    ->Arg(5)
    ->Arg(20)
    ->ArgNames({"rate_e-4"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

XGBE_BENCH_MAIN();
