// Fleet scenario catalogue: canonical cluster workloads over a core::Fabric.
//
// Three traffic shapes cover the failure surface the fleet doctor needs to
// see: incast (N workers answer one aggregator in synchronized rounds — the
// classic ToR buffer killer), all-to-all rounds (every host streams to a
// rotating peer, exercising every trunk of every bundle), and RPC churn
// (short-lived client/server connections through a listener, via
// core::churn). Each runs to a byte-exact expectation so a scenario either
// `completed` or visibly did not — degraded runs are the point, not an
// error.
//
// All scheduling is per-shard (Testbed::simulator_for) and all counters are
// single-writer, so every scenario is bit-identical across reruns and shard
// counts.
#pragma once

#include <cstdint>
#include <string>

#include "core/churn.hpp"
#include "core/fabric.hpp"

namespace xgbe::obs {
class MetricScraper;
}

namespace xgbe::core::fleet {

enum class Scenario : std::uint8_t { kIncast, kAllToAll, kRpcChurn };

const char* scenario_name(Scenario s);

/// RPC-churn options sized for a fabric run: a short burst that drains in
/// ~2 s of simulated time even when a fault strands handshakes.
churn::Options default_rpc();

struct Options {
  Scenario scenario = Scenario::kIncast;

  // --- kIncast ---------------------------------------------------------------
  /// Response size per worker per round. The default keeps a clean run just
  /// under the fabric's ToR port buffer (workers * bytes < 256 KiB for the
  /// default geometry), so tail drops on a clean fabric are exactly zero;
  /// raise it past the buffer to demonstrate incast collapse.
  std::uint32_t incast_bytes = 24 * 1024;
  std::size_t incast_rounds = 3;
  /// Gap between synchronized rounds.
  sim::SimTime round_period = sim::msec(2);

  // --- kAllToAll -------------------------------------------------------------
  std::uint32_t a2a_bytes = 16 * 1024;
  std::size_t a2a_rounds = 2;

  // --- kRpcChurn -------------------------------------------------------------
  churn::Options rpc = default_rpc();

  /// Settle time after the last expected byte (ACKs, retransmit tails).
  sim::SimTime drain = sim::msec(30);
  /// Hard stop for degraded runs that never reach the byte expectation
  /// (incomplete flows are then aborted so the ledger still balances).
  sim::SimTime deadline = sim::sec(2);

  /// Optional time-resolved telemetry: armed on the fabric's testbed for
  /// the scenario's duration (disarmed again before run() returns). The
  /// scraper samples its own Registry — build one over the fabric before
  /// calling run(). Arming never perturbs the run: results, counters, and
  /// executed-event counts are bit-identical to an unarmed run.
  obs::MetricScraper* scraper = nullptr;
};

struct Result {
  std::string name;
  std::uint64_t bytes_expected = 0;
  std::uint64_t bytes_consumed = 0;  // application-level, receiver side
  /// Every expected byte arrived before the deadline (for kRpcChurn: every
  /// opened connection reached a terminal bucket and none were refused or
  /// aborted).
  bool completed = false;
  sim::SimTime finished_at = 0;
  churn::Result rpc;  // kRpcChurn only
};

/// Runs one scenario on a built fabric. The fabric carries the counters —
/// snapshot its registry (and tools::DropReport ledgers) afterwards.
Result run(Fabric& fabric, const Options& opt);

}  // namespace xgbe::core::fleet
