// Canonical multi-host cluster workload for the parallel engine.
//
// One topology definition shared by the scaling bench (bench/sim_core.cpp)
// and the determinism suite (tests/test_parallel_engine.cpp): N hosts wired
// as back-to-back pairs, each pair driving a continuous TCP stream. The
// topology is a function of (hosts, spec) only — the shard count changes
// where components live, never what they do — so two clusters built with
// different shard counts must produce bit-identical simulations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/testbed.hpp"
#include "fault/fault.hpp"

namespace xgbe::core::cluster {

struct Options {
  std::size_t hosts = 2;   // 1 = single host running a timer-chain load
  std::size_t shards = 1;  // event-queue shards (>= 1; the engine is always on)
  /// Pair-link propagation delay; doubles as the engine lookahead, so a
  /// larger value means fatter windows and fewer barriers.
  sim::SimTime propagation = sim::usec(5);
  std::uint32_t mtu = 9000;
  /// Worker threads for window execution (0 = engine default). Part of the
  /// execution, not the topology: any value must give identical results.
  unsigned threads = 0;
  /// When active, installed on every pair link with the seed decorrelated
  /// per pair (never per shard — the fault schedule is part of the workload
  /// and must not depend on the partition).
  fault::FaultPlan link_fault;
};

/// A built cluster: the testbed plus the open connections (one per pair).
struct Cluster {
  explicit Cluster(std::size_t shards) : tb(shards) {}

  Testbed tb;
  std::vector<Testbed::Connection> conns;
  /// Writer continuations keeping each pair's stream saturated; populated by
  /// drive(). Held here so queued completions stay valid across calls.
  std::vector<std::shared_ptr<std::function<void()>>> writers;
  /// Bytes each pair's server app read. Per-pair (not one shared counter)
  /// because the callbacks run on the destination's shard worker — a shared
  /// counter would be written from every thread.
  std::vector<std::uint64_t> pair_consumed;
  std::uint64_t consumed = 0;  // sum of pair_consumed, filled by drive()
};

/// Builds the pair topology. Pairs are placed contiguously across shards
/// (pair i on shard i*shards/npairs, both ends together); a single host
/// gets a self-rescheduling timer chain instead of a peer.
std::unique_ptr<Cluster> build(const Options& options);

/// Establishes every connection, arms continuous writers, and runs
/// `warmup + window` of simulated time. Safe to call once per cluster.
void drive(Cluster& cluster, sim::SimTime warmup, sim::SimTime window);

/// FNV-1a over the full metrics-registry snapshot (every per-host, per-link,
/// per-flow counter the testbed exposes, rendered deterministically). Equal
/// fingerprints across shard counts is the determinism criterion.
std::uint64_t fingerprint(Cluster& cluster);

}  // namespace xgbe::core::cluster
