// Changepoint/threshold detection over scraped time series.
//
// The paper's methodology is to localize a pathology *in time* — watch the
// sequence plot, find where throughput collapses, match that window against
// reassembly/drop counters. obs::detect mechanizes that: it walks the
// columnar series a MetricScraper recorded and emits episodes —
// (onset_time, clear_time, severity) — for the pathologies the testbed can
// exhibit: fault-counter onsets (cable damage, carrier flaps), switch-port
// tail-drop bursts (incast collapse / trunk congestion), queue-depth
// saturation, srtt inflation, and per-link delivery-rate collapse.
//
// All detectors are pure integer arithmetic over i64 points — no floats, no
// smoothing windows with rounding, no wall-clock — so episode lists are
// byte-identical across reruns and shard counts. Cause
// slugs deliberately reuse the fleet_doctor vocabulary ("carrier-flap",
// "bad-cable", "incast-collapse", ...) so episodes fold directly into
// doctor findings as timeline evidence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/scrape.hpp"
#include "sim/time.hpp"

namespace xgbe::obs::detect {

/// One detected pathology window on one series.
struct Episode {
  std::string series;  // registry path the detector walked
  std::string cause;   // fleet_doctor cause slug ("carrier-flap", ...)
  sim::SimTime onset = 0;  // first scrape boundary where the condition held
  sim::SimTime clear = 0;  // first boundary confirmed quiet (0 if never)
  bool cleared = false;    // false: still active when the series ended
  std::int64_t severity = 0;  // cause-specific magnitude (see detectors)
};

struct DetectOptions {
  /// Consecutive quiet scrape intervals before a counter episode clears.
  /// The clear timestamp is the *first* quiet boundary, so this only delays
  /// confirmation, never shifts the reported window.
  int clear_intervals = 2;
  /// Rate-collapse arms only once some interval moved at least this many
  /// units — near-idle series never produce collapse noise.
  std::int64_t rate_floor = 8;
  /// Queue saturation opens at value * den >= max * num (default 3/4 of the
  /// series' own peak).
  std::int64_t queue_saturation_num = 3;
  std::int64_t queue_saturation_den = 4;
  /// Queue-depth series whose peak never reaches this (milli-bytes — the
  /// gauge unit) are skipped entirely: a port that briefly holds a frame is
  /// not saturating.
  std::int64_t queue_floor = 8192 * 1000;
  /// Gauge inflation opens at value > factor * baseline (first nonzero).
  std::int64_t inflation_factor = 2;
};

/// Counter onset: an episode opens at the first boundary whose interval
/// delta is positive and clears after `clear_intervals` quiet intervals.
/// Severity = total increase across the episode (for a flaps counter this
/// IS the flap count).
std::vector<Episode> detect_increase(const std::vector<SeriesPoint>& points,
                                     const std::string& series,
                                     const std::string& cause,
                                     const DetectOptions& opt = {});

/// Gauge threshold: opens at value >= threshold, clears at the first
/// boundary back below. Severity = peak value inside the episode.
std::vector<Episode> detect_threshold(const std::vector<SeriesPoint>& points,
                                      const std::string& series,
                                      const std::string& cause,
                                      std::int64_t threshold);

/// Delivery-rate collapse: once any interval delta reaches `rate_floor`,
/// an episode opens at the first boundary whose delta falls to a quarter
/// (or less) of the running peak delta, and clears when deltas recover
/// above that line. Severity = number of collapsed intervals.
std::vector<Episode> detect_rate_collapse(
    const std::vector<SeriesPoint>& points, const std::string& series,
    const std::string& cause, const DetectOptions& opt = {});

/// Applies the path-keyed detector policy to every series in the store:
///
///   */fault/{flaps,drops_carrier}            increase   carrier-flap
///   */fault/{drops_burst,drops_uniform,
///            drops_forced,corruptions,
///            drops_handshake,duplicates,
///            reorders}                       increase   bad-cable
///   switch/*/port/<egress>/dropped_queue_full increase  congested-trunk
///                                       (trunk egress) | incast-collapse
///   */host_fault/dma_throttled               increase   host-dma-throttle
///   */host_fault/alloc_fail_{rx,tx}          increase   host-memory-pressure
///   */host_fault/{ring_stall_drops,
///                 tx_ring_stalls}            increase   host-ring-stall
///   */queued_bytes                           threshold  queue-saturation
///   *srtt* (gauges)                          inflation  srtt-inflation
///   link/*/frames_delivered                  collapse   rate-collapse
///
/// Episodes come back sorted by (series, onset) — a total order, since a
/// series' episodes are disjoint in time.
std::vector<Episode> run_detectors(const TimeSeriesStore& store,
                                   const DetectOptions& opt = {});

/// Deterministic JSON array:
/// [{"series":..,"cause":..,"onset_ps":N,"clear_ps":N,"cleared":b,
///   "severity":N},...]
std::string episodes_json(const std::vector<Episode>& episodes);

}  // namespace xgbe::obs::detect
