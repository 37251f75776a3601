// fleet_doctor: automated fault localization for a cluster fabric.
//
// The doctor never looks at simulator internals: its only inputs are
// obs::Registry snapshots (summed across a scenario matrix) and the
// DropReport conservation ledgers — exactly what a fleet operator could
// scrape off real machines. From those it emits a ranked list of findings,
// each naming a component (the fabric's canonical names), a cause class,
// and the evidence, plus a machine-readable JSON verdict.
//
// Cause classes and their signatures:
//
//   bad-cable            link fault drops_burst/drops_uniform/corruptions
//   carrier-flap         link fault flaps / drops_carrier
//   half-speed-link      trunk rate_bps below its bundle's modal rate
//   congested-trunk      switch-port tail drops toward a trunk
//   incast-collapse      switch-port tail drops toward an access link
//   host-dma-throttle    host_fault dma_throttled
//   host-memory-pressure host_fault alloc_fail_rx/alloc_fail_tx
//   host-ring-stall      host_fault ring_stall_drops / tx_ring_stalls
//   ledger-leak          a conservation identity failed to balance
//
// A clean fabric produces an empty findings list — the doctor's silence is
// part of the contract (tests assert it).
//
// Timeline mode (scrape_period > 0) additionally answers *when*: every
// scenario runs under a MetricScraper, obs::detect turns the series into
// episodes, and each finding gains (onset, clear) timestamps plus a
// transient-vs-persistent classification — all without perturbing the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "core/fleet.hpp"
#include "obs/detect.hpp"
#include "obs/registry.hpp"
#include "tools/drop_report.hpp"

namespace xgbe::tools {

/// Registry paths to summed values: counters contribute their count,
/// gauges their value. Summing across scenario runs keeps counters exact
/// and scales every gauge uniformly, so ratio comparisons (the half-speed
/// rule) stay valid.
using MetricMap = std::map<std::string, double>;

/// Folds one snapshot into the map (additive).
void accumulate(MetricMap& merged, const obs::Snapshot& snap);

struct DoctorThresholds {
  /// Smallest drop count worth a finding (the sim is deterministic, so any
  /// nonzero count is real; raise this only to focus a noisy report).
  double min_drops = 1.0;
  /// A trunk whose rate is below this fraction of its bundle's modal rate
  /// is flagged half-speed.
  double half_speed_ratio = 0.9;
};

struct Finding {
  std::string component;  // canonical fabric name ("r1h0", "trunk-tor1-...")
  std::string kind;       // "access-link" | "trunk" | "switch-port" |
                          // "host" | "ledger"
  std::string cause;      // cause class slug (header table)
  double magnitude = 0.0; // ranking key: drop count or severity proxy
  double share = 0.0;     // magnitude / sum of all magnitudes
  std::string evidence;   // human-readable supporting numbers

  // --- Timeline (set when the doctor ran with a scrape period) -------------
  bool timed = false;       // the fields below are meaningful
  sim::SimTime onset = 0;   // earliest episode onset across the matrix
  sim::SimTime clear = 0;   // latest confirmed clear (0 when never cleared)
  bool cleared = false;     // every matched episode cleared before run end
  std::uint64_t episodes = 0;  // distinct detector episodes matched
  /// Episodic pathology: it cleared and recurred (more than one distinct
  /// episode) — a flapping carrier rather than a dead cable.
  bool transient = false;
};

struct Verdict {
  /// Ranked worst-first: (magnitude desc, cause asc, component asc) — a
  /// total order, so the verdict is bit-identical across reruns.
  std::vector<Finding> findings;
  bool frames_conserved = true;
  bool connections_conserved = true;

  bool clean() const { return findings.empty(); }
  /// One line per finding, rank first.
  std::string render() const;
  /// Machine-readable verdict, schema "xgbe-fleet-doctor/2" (the /1 schema
  /// lacked the per-finding timed/onset_ps/clear_ps/cleared/episodes/
  /// transient fields). Deterministic: doubles via obs::format_double,
  /// fixed key order — byte-identical across reruns and shard counts.
  std::string to_json() const;
};

/// Pure analysis: localizes faults from the merged metrics and the ledger.
Verdict diagnose(const MetricMap& metrics, const DropReport& ledger,
                 const DoctorThresholds& thresholds = {});

/// Folds detector episodes into the verdict's findings, matched on
/// (component, cause): a finding's onset is the earliest matched episode's
/// onset, its clear the latest confirmed clear, `transient` marks episodic
/// (recurred after clearing) pathologies. Unmatched episodes are ignored —
/// the evidence bar for a finding stays diagnose()'s.
void apply_timeline(Verdict& v,
                    const std::vector<obs::detect::Episode>& episodes);

struct FleetDoctorOptions {
  core::FabricOptions fabric;
  /// Scenario matrix; empty runs the canonical three (incast, all-to-all,
  /// RPC churn).
  std::vector<core::fleet::Options> scenarios;
  DoctorThresholds thresholds;
  /// Timeline mode: when > 0, every scenario runs with a MetricScraper at
  /// this cadence over the fabric's infrastructure probes (registered at
  /// build time — links, switches, hosts; no per-flow endpoints), the
  /// detectors turn the series into episodes, and findings carry
  /// onset/clear/transient. 0 keeps the classic untimed doctor.
  sim::SimTime scrape_period = 0;
  /// Per-series ring bound for the timeline scraper.
  std::size_t scrape_max_points = 4096;
  obs::detect::DetectOptions detect;
};

struct FleetDoctorReport {
  Verdict verdict;
  std::vector<core::fleet::Result> scenarios;
  DropReport ledger;
  /// Timeline mode only: every detector episode across the matrix, sorted
  /// by (series, onset) within each scenario and concatenated in scenario
  /// order.
  std::vector<obs::detect::Episode> episodes;
  /// The full session: scenario outcomes, ledger, ranked findings.
  std::string transcript() const;
};

/// Runs the scenario matrix (a fresh fabric per scenario, so faults and
/// counters never bleed between runs), accumulates the evidence, and
/// diagnoses once over the whole matrix.
FleetDoctorReport run_fleet_doctor(const FleetDoctorOptions& options);

}  // namespace xgbe::tools
