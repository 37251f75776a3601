// The benchmark's workloads: each is a fixed list of units (a slice of
// simulated time, a sweep point, a fabric cell or a doctor scenario run)
// that one pass runs in order on the calling thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Exact per-unit counts from public accessors and a registry snapshot.
/// They depend only on the simulated work, so they repeat exactly.
struct Counts {
  std::uint64_t testbeds = 0;  // testbeds or fabrics built
  std::uint64_t events = 0;
  std::uint64_t windows = 0;    // sharded engine only
  std::uint64_t exchanged = 0;  // sharded engine only
  std::vector<std::uint64_t> shard_events;
  std::uint64_t segs = 0;  // TCP data segments sent (pure ACKs excluded)
  std::uint64_t retransmits = 0;
  std::uint64_t conns = 0;        // endpoints opened
  std::uint64_t conn_failed = 0;  // connections refused or aborted
  std::uint64_t nic_frames = 0;   // frames the adapters transmitted
  std::uint64_t nic_rx_frames = 0;
  std::uint64_t nic_interrupts = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t sockbuf_drops = 0;
  std::uint64_t link_frames = 0;
  std::uint64_t queue_drops = 0;  // link queues and switch ports
  std::uint64_t switch_forwarded = 0;
  std::uint64_t switch_peak_bytes = 0;  // deepest port queue (a maximum)
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_reordered = 0;
  std::uint64_t fault_duplicated = 0;
  std::uint64_t probe_reads = 0;    // scrapes x series
  std::uint64_t span_journeys = 0;  // span-profiler journeys
  std::vector<std::uint32_t> unacked;  // Endpoint::unacked_segments samples

  /// Adds another unit's counts (the peak is a maximum, samples append).
  void add(const Counts& other);
  /// The part of `*this` (a running total) accrued since `before`.
  Counts since(const Counts& before) const;
};

struct UnitResult {
  std::string id;
  /// Host seconds to simulate the unit, its set-up included; the
  /// benchmark's checks and the teardown are outside it.
  double host_s = 0.0;
  /// Canonical deterministic outputs, compared with the reference.
  std::string outputs;
  /// Seed-independent invariants that failed (conservation, integrity,
  /// the doctor naming the injected fault).
  std::vector<std::string> violations;
  Counts counts;
};

using UnitSink = std::function<void(UnitResult&&)>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// False when the workload draws no randomness, so the seed is unused.
  virtual bool seeded() const = 0;
  /// Builds every unit's testbed or fabric and establishes its
  /// connections, then discards them. Returns the host seconds spent.
  virtual double setup_only() = 0;
  /// Runs every unit once, in order, handing each result to `sink`.
  virtual void run_pass(const UnitSink& sink) = 0;
  /// Cross-checks of the benchmark's own decomposition against the
  /// library's single-call path; returns the failures. Run untimed.
  virtual std::vector<std::string> equivalence() { return {}; }
  /// Host time with the engine's default worker count over host time
  /// inline, on a fixed subset of units; 0 when the workload has no pool.
  virtual double pool_slowdown() { return 0.0; }
};

const std::vector<std::string>& workload_names();

/// Seeded workloads draw their fault plans and churn from one of
/// kVariants variants: seed % kVariants. The reference holds every
/// variant, so any seed is checked.
inline constexpr std::uint64_t kVariants = 32;

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t variant);

/// Tags the spans that follow with a unit index (no-op when untraced).
void begin_unit(int unit);

}  // namespace perfbench
