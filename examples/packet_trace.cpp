// Wire-level protocol tracing (§3.2/§3.5.1): the paper used tcpdump to see
// the window/MSS interaction on the wire — "Using tcpdump and by monitoring
// the kernel's internal state variables with MAGNET, we trace the causes of
// this behavior to inefficient window use by both the sender and receiver."
//
// This example captures the handshake and the first data exchanges of a
// stock-configuration jumbo-frame connection, where the MSS-aligned
// advertised window is visible directly in the trace.
#include <cstdio>

#include "core/testbed.hpp"
#include "tools/nttcp.hpp"
#include "tools/tcpdump.hpp"

int main() {
  using namespace xgbe;
  core::Testbed tb;
  const auto tuning = core::TuningProfile::stock(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);

  tools::CaptureOptions copt;
  copt.max_lines = 40;
  tools::Capture cap(tb, copt);
  cap.attach(wire);

  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;  // exactly one (timestamped) jumbo MSS per write
  opt.count = 12;
  const auto r = tools::run_nttcp(tb, conn, a, b, opt);
  cap.detach(wire);

  std::printf("%s", cap.text().c_str());
  std::printf("\n%llu frames on the wire, %.2f Gb/s application throughput\n",
              static_cast<unsigned long long>(cap.frames_seen()),
              r.throughput_gbps());
  std::printf(
      "\nNote the advertised windows: multiples of the receiver's MSS\n"
      "estimate (the SWS-avoidance rounding of §3.5.1), shrinking as the\n"
      "16 KB-per-frame truesize accounting eats the 87380-byte buffer.\n");
  return 0;
}
