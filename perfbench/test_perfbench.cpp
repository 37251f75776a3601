// Tests of the benchmark's own logic: the tail rule, span self time,
// failure accounting, seed handling, and the equivalence of the bench's
// decompositions with the library paths they take apart.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.hpp"
#include "obs/registry.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Span;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailRule, HighestPercentileWithTenUnitsBeyond) {
  // 96 units: p89 sits at rank 86 with 10 beyond; p90 would leave 9.
  const perfbench::Tail t = perfbench::tail(ramp(96));
  EXPECT_EQ(t.percentile, 89);
  EXPECT_EQ(t.units, 96u);
  EXPECT_EQ(t.value, 86.0);

  const perfbench::Tail big = perfbench::tail(ramp(1000));
  EXPECT_EQ(big.percentile, 99);
  EXPECT_EQ(big.value, 990.0);
}

TEST(TailRule, FallsBackToTheMedianWithTooFewUnits) {
  // 20 units: only p50 leaves 10 beyond.
  EXPECT_EQ(perfbench::tail(ramp(20)).percentile, 50);
  EXPECT_EQ(perfbench::tail(ramp(20)).value, 10.0);
  // 7 units: nothing leaves 10 beyond; the median is reported as p50.
  const perfbench::Tail few = perfbench::tail(ramp(7));
  EXPECT_EQ(few.percentile, 50);
  EXPECT_EQ(few.units, 7u);
  EXPECT_EQ(few.value, 4.0);
  const perfbench::Tail none = perfbench::tail({});
  EXPECT_EQ(none.units, 0u);
  EXPECT_EQ(none.value, 0.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(perfbench::median({3, 1, 2}), 2.0);
  EXPECT_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root [0,10] > a [1,4] > leaf [2,3]; root > b [5,9]; another root [20,21].
  const std::vector<Span> spans = {
      {"sim.run", 0.0, 10.0, -1, 0}, {"tcp.app_send", 1.0, 4.0, 0, 0},
      {"obs.scrape", 2.0, 3.0, 1, 0}, {"tcp.app_send", 5.0, 9.0, 0, 0},
      {"sim.run", 20.0, 21.0, -1, 1},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT_DOUBLE_EQ(self.at("sim.run"), (10.0 - 3.0 - 4.0) + 1.0);
  EXPECT_DOUBLE_EQ(self.at("tcp.app_send"), (3.0 - 1.0) + 4.0);
  EXPECT_DOUBLE_EQ(self.at("obs.scrape"), 1.0);
}

TEST(SelfTime, ScopesRecordParentsAndUnits) {
  perfbench::Tracer tracer;
  perfbench::Tracer::active() = &tracer;
  tracer.set_unit(7);
  {
    perfbench::Scope outer("sim.run");
    perfbench::Scope inner("tcp.app_send");
  }
  { perfbench::Scope next("obs.snapshot"); }
  perfbench::Tracer::active() = nullptr;
  { perfbench::Scope untraced("core.build"); }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  for (const Span& s : tracer.spans()) {
    EXPECT_EQ(s.unit, 7);
    EXPECT_LE(s.start, s.end);
  }
}

TEST(FailFrac, CountsFailedUnitsAgainstAttempted) {
  perfbench::Tally tally;
  EXPECT_EQ(tally.fail_frac(), 0.0);
  tally.attempt(true, "");
  tally.attempt(false, "unit 1: outputs differ");
  tally.attempt(true, "");
  tally.attempt(true, "");
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_DOUBLE_EQ(tally.fail_frac(), 0.25);
  ASSERT_EQ(tally.messages().size(), 1u);
  EXPECT_EQ(tally.messages()[0], "unit 1: outputs differ");
  for (int i = 0; i < 50; ++i) tally.attempt(false, "again");
  EXPECT_EQ(tally.failed(), 51u);
  EXPECT_EQ(tally.messages().size(), 20u);  // the report keeps the first 20
}

std::vector<std::string> pass_outputs(const std::string& workload,
                                      std::uint64_t variant) {
  std::vector<std::string> out;
  auto w = perfbench::make_workload(workload, variant);
  w->run_pass([&](perfbench::UnitResult&& r) {
    EXPECT_TRUE(r.violations.empty()) << r.id << ": " << r.violations[0];
    out.push_back(r.id + " " + r.outputs);
  });
  return out;
}

TEST(Seeds, SameSeedSameOutputsOtherSeedOtherDraws) {
  const auto a = pass_outputs("fabric_matrix", 3);
  EXPECT_EQ(a, pass_outputs("fabric_matrix", 3));
  const auto b = pass_outputs("fabric_matrix", 4);
  ASSERT_EQ(a.size(), b.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i) differ += a[i] != b[i] ? 1 : 0;
  // A drawn fault can miss every frame of a cell, leaving it unchanged;
  // most cells must still see the new draws.
  EXPECT_GT(differ, a.size() / 2);

  EXPECT_NE(pass_outputs("doctor_timeline", 3),
            pass_outputs("doctor_timeline", 4));
}

TEST(Seeds, UnseededWorkloadsSaySo) {
  EXPECT_FALSE(perfbench::make_workload("wan_record", 0)->seeded());
  EXPECT_FALSE(perfbench::make_workload("lan_ladder", 0)->seeded());
  EXPECT_TRUE(perfbench::make_workload("fabric_matrix", 0)->seeded());
  EXPECT_TRUE(perfbench::make_workload("doctor_timeline", 0)->seeded());
  EXPECT_EQ(perfbench::make_workload("no_such_workload", 0), nullptr);
}

TEST(Tracing, TracedPassReproducesUntracedOutputs) {
  const auto plain = pass_outputs("fabric_matrix", 5);
  perfbench::Tracer tracer;
  perfbench::Tracer::active() = &tracer;
  const auto traced = pass_outputs("fabric_matrix", 5);
  perfbench::Tracer::active() = nullptr;
  EXPECT_EQ(plain, traced);
  const auto self = perfbench::self_times(tracer.spans());
  for (const char* name :
       {"core.build", "sim.run", "obs.snapshot", "tools.ledger"}) {
    EXPECT_GT(self.count(name), 0u) << name;
  }
}

TEST(Equivalence, ComposedDoctorMatchesRunFleetDoctor) {
  auto w = perfbench::make_workload("doctor_timeline", 0);
  const std::vector<std::string> failures = w->equivalence();
  EXPECT_TRUE(failures.empty()) << failures.front();
}

std::string field(const std::string& outputs, const std::string& name) {
  const std::size_t at = outputs.find(";" + name + "=");
  if (at == std::string::npos) return "";
  const std::size_t start = at + name.size() + 2;
  return outputs.substr(start, outputs.find(';', start) - start);
}

std::string fnv_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// The sliced wan_record reproduces wan_lsr's record and counterfactual
// counters and its cwnd series exactly (bench/common.hpp's wan_run is what
// bench/wan_lsr reports).
TEST(Equivalence, SlicedWanRecordMatchesWanLsr) {
  std::string record;
  std::string oversized;
  perfbench::make_workload("wan_record", 0)
      ->run_pass([&](perfbench::UnitResult&& r) {
        if (r.outputs.find(";gbps=") == std::string::npos) return;
        (r.id.rfind("record/", 0) == 0 ? record : oversized) = r.outputs;
      });

  xgbe::obs::FlowSampler sampler(xgbe::sim::msec(250));
  const auto lsr = xgbe::bench::wan_run(80u * 1024 * 1024, xgbe::sim::sec(8),
                                        xgbe::sim::sec(4), 1, {}, &sampler);
  EXPECT_EQ(field(record, "gbps"),
            xgbe::obs::format_double(lsr.result.throughput_gbps()));
  EXPECT_EQ(field(record, "retx"), std::to_string(lsr.retransmits));
  EXPECT_EQ(field(record, "rtt_ms"), xgbe::obs::format_double(lsr.rtt_ms));
  EXPECT_EQ(field(record, "samples"), std::to_string(sampler.rows().size()));
  EXPECT_EQ(field(record, "cwnd_series"), fnv_hex(sampler.to_csv()));

  const auto cf = xgbe::bench::wan_run(256u * 1024 * 1024);
  EXPECT_EQ(field(oversized, "gbps"),
            xgbe::obs::format_double(cf.result.throughput_gbps()));
  EXPECT_EQ(field(oversized, "retx"), std::to_string(cf.retransmits));
  EXPECT_EQ(field(oversized, "drops"), std::to_string(cf.circuit_drops));
  EXPECT_EQ(field(oversized, "rtt_ms"), xgbe::obs::format_double(cf.rtt_ms));
}

}  // namespace
