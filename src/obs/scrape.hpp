// Time-resolved telemetry: fixed-cadence metric scraping into a bounded
// columnar time-series store.
//
// The paper's diagnosis method is time-resolved — tcpdump traces taken
// *while* a transfer runs, not one end-of-run counter dump — and the obs
// layer so far only supports terminal Registry snapshots. MetricScraper
// closes the gap: armed via core::Testbed it samples a configurable subset
// of Registry probes at a fixed sim-time cadence through the sim::TimeHook
// boundary interface, which fires *between* events. The scraper schedules
// nothing, draws no randomness, and mutates no simulation state, so an
// armed run is bit-identical to an unarmed one — executed-event count
// included — in classic mode and under ShardedEngine at any shard/thread
// count (barriers are partition-invariant, so scrape boundaries and the
// observed values are too).
//
// TimeSeriesStore keeps one delta-encoded i64 column per probe path: the
// first point is stored absolute, every later point as (dt, dv) against its
// predecessor. A ring bound (`max_points`) folds the oldest delta into the
// base on overflow, so memory stays bounded on arbitrarily long runs while
// the retained tail decodes exactly. All exports (CSV, JSONL, series_json)
// are byte-identical across reruns.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xgbe::obs {

/// One decoded sample: the scrape boundary it was taken at plus the mapped
/// integer value (see MetricScraper for the unit mapping).
struct SeriesPoint {
  sim::SimTime at = 0;
  std::int64_t value = 0;
};

/// Bounded columnar store of integer time series, keyed by series name
/// (registry path). Append order per series must be time-monotone (the
/// scraper's cadence guarantees it).
class TimeSeriesStore {
  struct Series;

 public:
  /// Handle to one series of the store that handed it out. It stays valid
  /// for that store's lifetime: series are never erased, and std::map nodes
  /// do not move.
  class Column {
    friend class TimeSeriesStore;
    explicit Column(Series* series) : series_(series) {}
    Series* series_;
  };

  explicit TimeSeriesStore(std::size_t max_points = 4096);

  /// The column of `series`, created empty on first use and labelled `unit`
  /// ("count" for counters/distributions, "milli" for gauges); later calls
  /// return the same column and keep its first label. A created column is
  /// listed by series_names() and the exports even before its first point.
  Column column(const std::string& series, const char* unit);
  /// Appends one point; evicts the series' oldest point first when the ring
  /// bound is reached.
  void append(Column column, sim::SimTime at, std::int64_t value);
  /// append(column(series, unit), at, value).
  void append(const std::string& series, sim::SimTime at, std::int64_t value,
              const char* unit = "count");

  std::size_t max_points() const { return max_points_; }
  std::size_t series_count() const { return series_.size(); }
  std::uint64_t total_points() const;
  /// Sorted (map order) series names.
  std::vector<std::string> series_names() const;
  /// Decoded points of one series, oldest first (empty when unknown).
  std::vector<SeriesPoint> points(const std::string& series) const;
  /// Points dropped off the ring's old end for one series.
  std::uint64_t evicted(const std::string& series) const;
  const std::string& unit(const std::string& series) const;

  /// "series,unit,at_ps,value" header plus one row per point, series in
  /// path order. Byte-identical across reruns.
  std::string to_csv() const;
  /// One JSON object per line, same fields as the CSV.
  std::string to_jsonl() const;
  /// Compact per-series JSON for the bench result log:
  /// {"series":[{"path":..,"unit":..,"evicted":N,"points":[[at_ps,v],..]},..]}
  std::string series_json() const;
  /// FNV-1a over to_csv() — the determinism criterion for gates.
  std::uint64_t fingerprint() const;

 private:
  struct Series {
    std::string unit;
    sim::SimTime base_at = 0;
    std::int64_t base_value = 0;
    bool any = false;
    // (dt, dv) against the previous point; prefix sums decode exactly.
    std::deque<std::pair<sim::SimTime, std::int64_t>> deltas;
    // Decoded newest point, cached so appends stay O(1).
    sim::SimTime last_at = 0;
    std::int64_t last_value = 0;
    std::uint64_t evicted = 0;
  };

  std::size_t max_points_;
  // std::map: iteration (and with it every export) is sorted by path.
  std::map<std::string, Series> series_;
};

struct ScrapeOptions {
  /// Sim-time between scrapes (boundaries at period, 2*period, ...).
  sim::SimTime period = sim::msec(1);
  /// Ring bound per series.
  std::size_t max_points = 4096;
  /// Probe-path prefixes to sample; empty samples every registered probe.
  /// Non-matching probes are never evaluated.
  std::vector<std::string> prefixes;
};

/// Samples a Registry at a fixed cadence into a TimeSeriesStore. Value
/// mapping keeps everything integer: counters record their count,
/// distributions their sample count, and gauges llround(value * 1000)
/// ("milli" units — e.g. srtt_us gauges become integer nanoseconds).
///
/// The probes to read are resolved once into a path-ordered plan of
/// (probe, column) pairs, rebuilt only when the registry's generation()
/// moves (any registration). A boundary then calls each planned probe once
/// and appends to its column: no snapshot, no path copy, no lookup.
///
/// Arm via Testbed::set_metric_scraper() (classic: between-event firing;
/// sharded: lookahead-barrier firing — samples observe the first barrier at
/// or after each boundary, timestamped with the nominal boundary). The
/// registry and scraper must outlive the armed run or be disarmed first.
class MetricScraper : public sim::TimeHook {
 public:
  explicit MetricScraper(const Registry& registry, ScrapeOptions options = {});
  // The plan points into this scraper's own store.
  MetricScraper(const MetricScraper&) = delete;
  MetricScraper& operator=(const MetricScraper&) = delete;

  // sim::TimeHook
  sim::SimTime due() const override { return due_; }
  void advance(sim::SimTime at) override;

  const ScrapeOptions& options() const { return opt_; }
  std::uint64_t scrapes() const { return scrapes_; }
  TimeSeriesStore& store() { return store_; }
  const TimeSeriesStore& store() const { return store_; }

  /// Full scrape JSON for the bench result log:
  /// {"period_ps":N,"scrapes":N,"series":[...]}.
  std::string scrape_json() const;

 private:
  struct Planned {
    const Registry::Probe* probe = nullptr;
    TimeSeriesStore::Column column;
  };

  void rebuild_plan();

  const Registry& registry_;
  ScrapeOptions opt_;
  TimeSeriesStore store_;
  sim::SimTime due_;
  std::uint64_t scrapes_ = 0;
  std::vector<Planned> plan_;
  // Registry generation the plan was built at; an empty registry is at 0,
  // where the empty initial plan is already right.
  std::uint64_t plan_generation_ = 0;
};

}  // namespace xgbe::obs
