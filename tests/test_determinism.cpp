// Regression tests for the repo's reproducibility contract: identical
// inputs give bit-identical simulations, whether runs happen back to back
// in one process or fanned across parallel_sweep worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/parallel_sweep.hpp"
#include "core/testbed.hpp"
#include "obs/span.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

struct RunCapture {
  std::uint64_t executed_events = 0;
  double gbps = 0.0;
  std::uint64_t retransmits = 0;
  std::string samples;  // the flow sampler's CSV

  bool operator==(const RunCapture&) const = default;
};

// One Fig 2a NTTCP run (back-to-back PE2650s, stock tuning), instrumented
// with a FlowSampler following the sender's cwnd, flight and srtt.
RunCapture fig2a_run(std::uint32_t payload) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::stock(9000);
  auto& a = tb.add_host("tx", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("rx", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  obs::FlowSampler sampler(sim::usec(200));
  tb.set_flow_sampler(&sampler);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = payload;
  opt.count = 400;
  const auto result = tools::run_nttcp(tb, conn, a, b, opt);
  sampler.stop();
  RunCapture cap;
  cap.executed_events = tb.simulator().executed_events();
  cap.gbps = result.throughput_gbps();
  cap.retransmits = result.retransmits;
  cap.samples = sampler.to_csv();
  return cap;
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  const RunCapture first = fig2a_run(8000);
  const RunCapture second = fig2a_run(8000);
  EXPECT_GT(first.executed_events, 0u);
  EXPECT_GT(first.gbps, 0.0);
  // A header line plus sampled rows.
  EXPECT_GT(std::count(first.samples.begin(), first.samples.end(), '\n'), 1);
  EXPECT_EQ(first, second);
}

// The same contract must survive the bench sweep runner: worker threads may
// execute points in any order, but per-point results are committed by index
// and each simulation is self-contained, so thread count cannot change them.
TEST(Determinism, ParallelSweepMatchesSerial) {
  const std::vector<std::uint32_t> payloads = {1024, 8000, 8948};
  auto runner = [](const std::uint32_t& payload) { return fig2a_run(payload); };
  const auto serial = bench::parallel_sweep(payloads, runner, 1);
  const auto parallel = bench::parallel_sweep(payloads, runner, 4);
  ASSERT_EQ(serial.size(), payloads.size());
  EXPECT_EQ(serial, parallel);
  // And against a fresh in-thread run, so the sweep itself is not just
  // self-consistent but agrees with the plain call.
  EXPECT_EQ(serial[1], fig2a_run(8000));
}

}  // namespace
}  // namespace xgbe
