#include "tools/magnet.hpp"

#include <iterator>

#include "obs/span.hpp"
#include "tools/nttcp.hpp"

namespace xgbe::tools {

namespace {

/// A MAGNET stage: the span stages `first` through `last`, in path order.
struct StageGroup {
  const char* name;
  obs::Stage first;
  obs::Stage last;
};

constexpr StageGroup kGroups[] = {
    {"tx_host", obs::Stage::kTxRing, obs::Stage::kTxRing},
    {"tx_dma", obs::Stage::kTxDma, obs::Stage::kTxDma},
    {"wire", obs::Stage::kWire, obs::Stage::kSwitchQueue},
    {"rx_dma", obs::Stage::kRxRing, obs::Stage::kRxRing},
    {"coalesce", obs::Stage::kIntrCoalesce, obs::Stage::kIntrCoalesce},
    {"rx_kernel", obs::Stage::kRxStack, obs::Stage::kRxStack},
};

}  // namespace

const MagnetStage* MagnetReport::stage(const std::string& name) const {
  for (const auto& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const MagnetStage* MagnetReport::hottest() const {
  const MagnetStage* best = nullptr;
  for (const auto& s : stages) {
    if (best == nullptr || s.us.mean() > best->us.mean()) best = &s;
  }
  return best;
}

MagnetReport run_magnet(core::Testbed& tb, core::Testbed::Connection& conn,
                        core::Host& sender, core::Host& receiver,
                        const MagnetOptions& options) {
  MagnetReport report;
  for (const StageGroup& g : kGroups) report.stages.push_back({g.name, {}});

  obs::SpanProfiler spans;
  spans.set_journey_observer([&report](const obs::StageDurations& dur) {
    for (std::size_t i = 0; i < std::size(kGroups); ++i) {
      sim::SimTime ps = 0;
      for (auto s = static_cast<std::size_t>(kGroups[i].first);
           s <= static_cast<std::size_t>(kGroups[i].last); ++s) {
        ps += dur[s];
      }
      report.stages[i].us.add(sim::to_microseconds(ps));
    }
  });
  obs::SpanProfiler* const previous = tb.span_profiler();
  tb.set_span_profiler(&spans);

  NttcpOptions nt;
  nt.payload = options.payload;
  nt.count = options.count;
  nt.timeout = options.timeout;
  const NttcpResult r = run_nttcp(tb, conn, sender, receiver, nt);

  tb.set_span_profiler(previous);

  report.completed = r.completed;
  report.journeys = spans.breakdown().journeys;
  report.throughput_gbps = r.throughput_gbps();
  double sum = 0.0;
  for (const auto& s : report.stages) sum += s.us.mean();
  report.total_us_mean = sum;
  return report;
}

}  // namespace xgbe::tools
