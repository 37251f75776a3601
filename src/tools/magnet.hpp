// MAGNET: per-packet path profiling (§3.2, §5).
//
// The paper uses MAGNET to "trace and profile the paths taken by individual
// packets through the TCP stack with negligible effect on network
// performance", quantifying "how many packets take each possible path, the
// cost of each path" — and closes by instrumenting the stack with it to get
// "an unprecedentedly high-resolution picture of the most expensive aspects
// of TCP processing overhead".
//
// This re-implementation is a coarser view of obs::SpanProfiler: it arms a
// profiler for one NTTCP transfer and folds every completed journey (each
// data segment that was neither dropped nor retransmitted) into six stages,
// each an exact sum of span stages:
//
//   tx_host   = tx-ring                (TCP emit -> DMA start)
//   tx_dma    = tx-dma                 (DMA read -> first bit on the wire)
//   wire      = wire + switch-queue    (every hop, queueing included)
//   rx_dma    = rx-ring                (last bit in -> DMA write complete)
//   coalesce  = intr-coalesce          (DMA complete -> interrupt)
//   rx_kernel = rx-stack               (interrupt -> TCP accepted it)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "sim/stats.hpp"

namespace xgbe::tools {

struct MagnetOptions {
  std::uint32_t payload = 8000;
  std::uint32_t count = 2000;
  sim::SimTime timeout = sim::sec(120);
};

/// One pipeline stage's residence-time statistics.
struct MagnetStage {
  std::string name;
  sim::OnlineStats us;  // residence time in microseconds
};

struct MagnetReport {
  bool completed = false;
  std::uint64_t journeys = 0;  // profiled segments
  double throughput_gbps = 0.0;
  /// Stages in path order: tx host, TX DMA, wire (+switch), RX DMA,
  /// interrupt coalescing, RX kernel.
  std::vector<MagnetStage> stages;
  double total_us_mean = 0.0;

  const MagnetStage* stage(const std::string& name) const;
  /// The most expensive stage by mean residence time.
  const MagnetStage* hottest() const;
};

/// Runs an NTTCP transfer with a span profiler armed on the testbed
/// (classic mode only) and returns per-stage cost statistics. The profiler
/// the testbed had armed before is restored afterwards.
MagnetReport run_magnet(core::Testbed& tb, core::Testbed::Connection& conn,
                        core::Host& sender, core::Host& receiver,
                        const MagnetOptions& options);

}  // namespace xgbe::tools
