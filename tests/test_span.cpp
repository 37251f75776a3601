// Tests for the span profiler (per-segment latency attribution) and the
// flow time-series sampler.
//
// The two load-bearing contracts:
//  - Attribution is a ledger, not an estimate: integer-picosecond stage
//    durations telescope, so they sum to the end-to-end time *exactly*.
//  - Observation is free: arming either tool must not change simulation
//    results (the profiler is fully passive and even leaves the executed
//    event count untouched; the sampler schedules read-only probe ticks,
//    so everything except the event count stays bit-identical).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/testbed.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "tools/netpipe.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

// ---------------------------------------------------------------------------
// NetPipe harness: ping-pong is the workload where the ledger is exact by
// construction — every measured iteration is two journeys (ping + pong) and
// the profiler resets at the warmup boundary, so summed journey time equals
// summed measured RTTs.

struct PingPongRun {
  tools::NetpipeResult result;
  std::string fingerprint;  // metrics snapshot + final sim clock
  std::uint64_t executed_events = 0;
};

PingPongRun ping_pong(std::uint32_t payload, bool through_switch,
                      bool coalesce, obs::SpanProfiler* spans) {
  core::Testbed tb;
  if (spans != nullptr) tb.set_span_profiler(spans);
  auto tuning = core::TuningProfile::lan_tuned(9000);
  if (!coalesce) tuning.intr_delay = 0;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  if (through_switch) {
    auto& sw = tb.add_switch();
    tb.connect_to_switch(a, sw);
    tb.connect_to_switch(b, sw);
  } else {
    tb.connect(a, b);
  }
  auto cfg = tools::netpipe_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::NetpipeOptions opt;
  opt.payload = payload;
  opt.iterations = 40;
  opt.spans = spans;
  PingPongRun run;
  run.result = tools::run_netpipe(tb, conn, opt);
  obs::Registry reg;
  tb.register_metrics(reg);
  run.fingerprint = reg.snapshot().to_json() + "\n@" + std::to_string(tb.now());
  run.executed_events = tb.simulator().executed_events();
  return run;
}

TEST(SpanProfiler, StageTotalsSumToEndToEndExactly) {
  obs::SpanProfiler spans;
  const PingPongRun run = ping_pong(1, /*through_switch=*/false,
                                    /*coalesce=*/true, &spans);
  ASSERT_TRUE(run.result.completed);
  const obs::SpanBreakdown b = spans.breakdown();
  // 40 measured iterations, two journeys (ping + pong) each.
  EXPECT_EQ(b.journeys, 80u);
  EXPECT_EQ(b.aborted, 0u);
  EXPECT_EQ(b.overflowed, 0u);
  EXPECT_EQ(spans.open_journeys(), 0u);
  // The ledger contract: exact integer conservation, no epsilon.
  EXPECT_EQ(b.stage_sum_ps(), b.end_to_end_total_ps);
  // Summed journey time == summed RTTs, so the means agree to rounding.
  EXPECT_NEAR(b.end_to_end_mean_us(), run.result.latency_us, 1e-9);
}

TEST(SpanProfiler, SwitchPathChargesTheSwitchQueueStage) {
  obs::SpanProfiler direct_spans;
  const PingPongRun direct = ping_pong(1, false, true, &direct_spans);
  obs::SpanProfiler switched_spans;
  const PingPongRun switched = ping_pong(1, true, true, &switched_spans);
  ASSERT_TRUE(direct.result.completed);
  ASSERT_TRUE(switched.result.completed);

  const obs::SpanBreakdown bd = direct_spans.breakdown();
  const obs::SpanBreakdown bs = switched_spans.breakdown();
  EXPECT_EQ(bd.stage_mean_us(obs::Stage::kSwitchQueue), 0.0);
  EXPECT_GT(bs.stage_mean_us(obs::Stage::kSwitchQueue), 0.0);
  // Conservation holds on the multi-hop path too.
  EXPECT_EQ(bs.stage_sum_ps(), bs.end_to_end_total_ps);
  // And the switch's added latency shows up end to end.
  EXPECT_GT(switched.result.latency_us, direct.result.latency_us);
}

TEST(SpanProfiler, TheCoalescingStageExplainsTheFig6Fig7Delta) {
  // Paper §3.2: the default 5 us interrupt-coalescing delay is the single
  // biggest line item at one byte (19 us vs 14 us with `rx-usecs 0`). The
  // attribution must place that delta in the intr-coalesce stage, not
  // smear it across the pipeline.
  obs::SpanProfiler coalesced;
  const PingPongRun fig6 = ping_pong(1, false, /*coalesce=*/true, &coalesced);
  obs::SpanProfiler uncoalesced;
  const PingPongRun fig7 = ping_pong(1, false, /*coalesce=*/false,
                                     &uncoalesced);
  ASSERT_TRUE(fig6.result.completed);
  ASSERT_TRUE(fig7.result.completed);

  const double delta_latency =
      fig6.result.latency_us - fig7.result.latency_us;
  EXPECT_GT(delta_latency, 3.0);
  EXPECT_LT(delta_latency, 7.0);

  const double delta_intr =
      coalesced.breakdown().stage_mean_us(obs::Stage::kIntrCoalesce) -
      uncoalesced.breakdown().stage_mean_us(obs::Stage::kIntrCoalesce);
  EXPECT_NEAR(delta_intr, delta_latency, 0.2 * delta_latency);
}

TEST(SpanProfiler, ArmedRunIsBitIdenticalToUnarmed) {
  const PingPongRun unarmed = ping_pong(1024, true, true, nullptr);
  obs::SpanProfiler spans;
  const PingPongRun armed = ping_pong(1024, true, true, &spans);
  EXPECT_EQ(unarmed.fingerprint, armed.fingerprint);
  // The profiler is fully passive: not even the event count moves.
  EXPECT_EQ(unarmed.executed_events, armed.executed_events);
  EXPECT_GT(spans.breakdown().journeys, 0u);
}

TEST(SpanProfiler, DroppedSegmentsAbortInsteadOfCorrupting) {
  core::Testbed tb;
  obs::SpanProfiler spans;
  tb.set_span_profiler(&spans);
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);
  wire.inject_drops(2);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 200;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);

  const obs::SpanBreakdown breakdown = spans.breakdown();
  // The drops (and the retransmissions that replace them) abort journeys.
  EXPECT_GT(breakdown.aborted, 0u);
  EXPECT_GT(breakdown.journeys, 0u);
  // Every journey is opened exactly once and retired exactly once.
  EXPECT_EQ(breakdown.opened,
            breakdown.journeys + breakdown.aborted + spans.open_journeys());
  // Aborted journeys leave no residue in the ledger.
  EXPECT_EQ(breakdown.stage_sum_ps(), breakdown.end_to_end_total_ps);
}

// Null disarms the components already built, so a profiler or sink armed
// for one run (MAGNET's, say) can go away while the testbed runs on.
TEST(SpanProfiler, NullDisarmsEveryExistingComponent) {
  core::Testbed tb;
  obs::SpanProfiler spans;
  obs::TraceSink sink(64);
  tb.set_span_profiler(&spans);
  tb.set_trace_sink(&sink);
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 50;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  const std::uint64_t opened = spans.breakdown().opened;
  const std::uint64_t offered = sink.offered();
  ASSERT_GT(opened, 0u);
  ASSERT_GT(offered, 0u);

  tb.set_span_profiler(nullptr);
  tb.set_trace_sink(nullptr);
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  EXPECT_EQ(spans.breakdown().opened, opened);
  EXPECT_EQ(sink.offered(), offered);
}

TEST(SpanProfiler, ResetClearsAggregatesAndOpenJourneys) {
  obs::SpanProfiler spans;
  const PingPongRun run = ping_pong(1, false, true, &spans);
  ASSERT_TRUE(run.result.completed);
  ASSERT_GT(spans.breakdown().journeys, 0u);
  spans.reset();
  const obs::SpanBreakdown b = spans.breakdown();
  EXPECT_EQ(b.journeys, 0u);
  EXPECT_EQ(b.opened, 0u);
  EXPECT_EQ(b.stage_sum_ps(), 0);
  EXPECT_EQ(b.end_to_end_total_ps, 0);
  EXPECT_EQ(spans.open_journeys(), 0u);
  EXPECT_EQ(spans.end_to_end_histogram().total(), 0u);
}

TEST(SpanProfiler, BreakdownRenderingsAreConsistent) {
  obs::SpanProfiler spans;
  const PingPongRun run = ping_pong(1, false, true, &spans);
  ASSERT_TRUE(run.result.completed);
  const obs::SpanBreakdown b = spans.breakdown();

  const std::string table =
      obs::format_breakdown_table(b, run.result.latency_us);
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    EXPECT_NE(table.find(obs::stage_name(static_cast<obs::Stage>(i))),
              std::string::npos);
  }
  EXPECT_NE(table.find("end-to-end"), std::string::npos);
  EXPECT_NE(table.find("measured"), std::string::npos);

  const std::string json = obs::breakdown_json(b);
  EXPECT_NE(json.find("\"journeys\":" + std::to_string(b.journeys)),
            std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"intr-coalesce\""), std::string::npos);
  // Deterministic rendering: same breakdown, same bytes.
  EXPECT_EQ(json, obs::breakdown_json(spans.breakdown()));
}

// ---------------------------------------------------------------------------
// FlowSampler: a bulk-transfer harness with the sampler armed.

struct SampledRun {
  std::string fingerprint;  // metrics snapshot + final sim clock
  std::string csv;
  std::string jsonl;
  std::size_t rows = 0;
};

SampledRun bulk_transfer(obs::FlowSampler* sampler) {
  core::Testbed tb;
  if (sampler != nullptr) tb.set_flow_sampler(sampler);
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 500;
  EXPECT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  if (sampler != nullptr) sampler->stop();
  SampledRun run;
  obs::Registry reg;
  tb.register_metrics(reg);
  run.fingerprint = reg.snapshot().to_json() + "\n@" + std::to_string(tb.now());
  if (sampler != nullptr) {
    run.csv = sampler->to_csv();
    run.jsonl = sampler->to_jsonl();
    run.rows = sampler->rows().size();
  }
  return run;
}

TEST(FlowSampler, ArmedRunLeavesSimulationResultsUnchanged) {
  // The sampler schedules its own (read-only) timer events, so the
  // executed-event count legitimately differs — but every simulation
  // result (metrics, clock) must match an unarmed run bit for bit.
  const SampledRun unarmed = bulk_transfer(nullptr);
  obs::FlowSampler sampler(sim::usec(200));
  const SampledRun armed = bulk_transfer(&sampler);
  EXPECT_EQ(unarmed.fingerprint, armed.fingerprint);
  EXPECT_GT(armed.rows, 0u);
}

TEST(FlowSampler, RerunsProduceIdenticalSeries) {
  obs::FlowSampler first(sim::usec(200));
  const SampledRun one = bulk_transfer(&first);
  obs::FlowSampler second(sim::usec(200));
  const SampledRun two = bulk_transfer(&second);
  ASSERT_GT(one.rows, 0u);
  EXPECT_EQ(one.csv, two.csv);
  EXPECT_EQ(one.jsonl, two.jsonl);
  // The renderings carry the same row count and start with the header.
  EXPECT_EQ(one.csv.substr(0, one.csv.find('\n')),
            "at_ps,flow,cwnd_segments,ssthresh_segments,flight_bytes,"
            "srtt_us,rwnd_bytes,cc_state");
  EXPECT_EQ(obs::series_json(first), obs::series_json(second));
}

TEST(FlowSampler, SamplesCarryLiveTcpState) {
  obs::FlowSampler sampler(sim::usec(200));
  const SampledRun run = bulk_transfer(&sampler);
  ASSERT_GT(run.rows, 2u);
  bool saw_flight = false;
  bool saw_srtt = false;
  for (const obs::FlowSampler::Row& row : sampler.rows()) {
    EXPECT_EQ(row.flow, 1u);
    EXPECT_GT(row.sample.cwnd_segments, 0u);
    if (row.sample.flight_bytes > 0) saw_flight = true;
    if (row.sample.srtt > 0) saw_srtt = true;
  }
  EXPECT_TRUE(saw_flight);
  EXPECT_TRUE(saw_srtt);
  // Rows are appended in time order.
  for (std::size_t i = 1; i < sampler.rows().size(); ++i) {
    EXPECT_GT(sampler.rows()[i].at, sampler.rows()[i - 1].at);
  }
}

TEST(FlowSampler, MaxSamplesBoundsTheSeries) {
  obs::FlowSampler sampler(sim::usec(200), /*max_samples=*/5);
  const SampledRun run = bulk_transfer(&sampler);
  EXPECT_EQ(run.rows, 5u);
}

TEST(FlowSampler, ResetAllowsReuseAgainstAFreshTestbed) {
  obs::FlowSampler sampler(sim::usec(200));
  const SampledRun one = bulk_transfer(&sampler);
  ASSERT_GT(one.rows, 0u);
  sampler.reset();
  EXPECT_TRUE(sampler.rows().empty());
  const SampledRun two = bulk_transfer(&sampler);
  EXPECT_EQ(one.csv, two.csv);
}

}  // namespace
}  // namespace xgbe
