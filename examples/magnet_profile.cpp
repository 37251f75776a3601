// MAGNET per-packet path profiling (§3.2, §5): where does the time go on
// the 10GbE data path? The paper closes by instrumenting the Linux TCP
// stack with MAGNET to get "an unprecedentedly high-resolution picture of
// the most expensive aspects of TCP processing overhead" — this example
// produces that picture for the simulated PE2650 path, before and after
// the §3.3 tuning, and under the §3.5.3 future offloads.
#include <cstdio>

#include "core/testbed.hpp"
#include "tools/magnet.hpp"

namespace {

void profile(const char* title, const xgbe::core::TuningProfile& tuning) {
  using namespace xgbe;
  core::Testbed tb;
  auto& a = tb.add_host("tx", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("rx", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());

  tools::MagnetOptions opt;
  opt.payload = 8948;
  opt.count = 2000;
  const tools::MagnetReport m = tools::run_magnet(tb, conn, a, b, opt);
  if (!m.completed) {
    std::printf("%s: run failed\n", title);
    return;
  }

  std::printf("\n=== %s (%.2f Gb/s, %llu packets profiled) ===\n", title,
              m.throughput_gbps,
              static_cast<unsigned long long>(m.journeys));
  std::printf("%-12s %10s %10s %10s\n", "stage", "mean us", "min us",
              "max us");
  for (const auto& s : m.stages) {
    std::printf("%-12s %10.2f %10.2f %10.2f\n", s.name.c_str(), s.us.mean(),
                s.us.min(), s.us.max());
  }
  std::printf("%-12s %10.2f   (hottest: %s)\n", "total", m.total_us_mean,
              m.hottest()->name.c_str());
}

}  // namespace

int main() {
  using xgbe::core::TuningProfile;
  std::printf("Per-packet path residence times include queueing — under\n"
              "load the queue in front of the bottleneck dominates,\n"
              "which is exactly how MAGNET exposed the host-software\n"
              "bottleneck in the paper.\n");
  profile("stock (SMP, MMRBC 512)", TuningProfile::stock(9000));
  profile("fully tuned (Fig 5 config)", TuningProfile::lan_tuned(9000));
  profile("future: RDDP + CSA (§5 projection)",
          TuningProfile::future_offload(9000));
  return 0;
}
