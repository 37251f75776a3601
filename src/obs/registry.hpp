// Metrics registry: one place to read every counter in the testbed.
//
// The registry is pull-based: components register named probes (closures
// over their existing counters) and pay nothing on the hot path — a probe
// runs only when it is read (snapshot(), or a MetricScraper boundary over
// select()). Paths are hierarchical slash-joined names
// ("tx/tcp/flow1/retransmits", "link/tx<->rx/drops_queue"); a snapshot is
// sorted by path, so two identically-seeded runs render byte-identical
// JSON/CSV.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"

namespace xgbe::obs {

enum class Kind : std::uint8_t { kCounter, kGauge, kDistribution };

/// One sampled metric. Counters fill `count`; gauges fill `value`;
/// distributions fill `count` (n) plus value (mean) / min / max / stddev.
struct Sample {
  std::string path;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;
  double value = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};

/// A point-in-time reading of every registered probe, sorted by path.
struct Snapshot {
  std::vector<Sample> samples;

  /// Binary search by exact path; null if absent.
  const Sample* find(std::string_view path) const;

  /// Deterministic renderings: no wall-clock timestamps, doubles via
  /// shortest-round-trip formatting, fixed key order.
  std::string to_json() const;
  std::string to_csv() const;
};

class Registry {
 public:
  /// One registered probe: its kind and the closure of that kind (the other
  /// two are empty).
  struct Probe {
    Kind kind = Kind::kCounter;
    std::function<std::uint64_t()> counter;
    std::function<double()> gauge;
    std::function<sim::OnlineStats()> distribution;
  };

  /// A selected probe and its path. Both point into the registry: a probe
  /// and its path never move, since registration never erases or relocates
  /// an existing entry (re-registering a path overwrites its Probe in place).
  struct Entry {
    const std::string* path = nullptr;
    const Probe* probe = nullptr;
  };

  /// Registers a monotonic counter probe. Re-registering a path replaces
  /// the previous probe (components re-register after reconfiguration).
  void counter(std::string path, std::function<std::uint64_t()> probe);
  /// Registers an instantaneous-value probe.
  void gauge(std::string path, std::function<double()> probe);
  /// Registers a distribution probe (summary statistics of a sample set).
  void distribution(std::string path, std::function<sim::OnlineStats()> probe);

  std::size_t size() const { return probes_.size(); }
  /// Bumped by every counter()/gauge()/distribution() call, re-registrations
  /// included. A caller that cached select() results is stale once this
  /// moves.
  std::uint64_t generation() const { return generation_; }
  Snapshot snapshot() const;

  /// The probes whose path starts with one of `prefixes` (every probe when
  /// the list is empty), sorted by path. Selecting invokes no probe, so a
  /// scraper restricted to live subsystems never calls a stale closure
  /// elsewhere.
  std::vector<Entry> select(const std::vector<std::string>& prefixes) const;

 private:
  static Sample sample_probe(const std::string& path, const Probe& probe);

  // std::map: iteration (and therefore snapshot order) is sorted by path,
  // and its nodes never move, which keeps select()'s pointers valid.
  std::map<std::string, Probe> probes_;
  std::uint64_t generation_ = 0;
};

/// Shortest-round-trip decimal rendering of a double ("0.25", "1e-05");
/// deterministic across runs, exact on read-back. Shared by the snapshot
/// exporters and the bench JSON writer.
std::string format_double(double v);

/// Minimal JSON string escaping for paths/labels.
std::string json_escape(std::string_view s);

}  // namespace xgbe::obs
