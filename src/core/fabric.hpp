// Cluster fabric builder: racks of hosts under ToR switches, a spine tier,
// and ECMP-trunked uplinks — the scale-out topology the paper's single
// tuned path feeds into.
//
// Layout and naming are systematic so that observability consumers (the
// drop ledger, tools::fleet_doctor) can classify components from registry
// paths alone:
//
//   hosts         "r<R>h<H>"
//   ToR switches  "tor<R>"            (one per rack)
//   spines        "spine<S>"
//   access links  "r<R>h<H>-tor<R>"
//   trunks        "trunk-tor<R>-spine<S>-<K>"   (K parallel trunks per
//                                                (rack, spine) bundle)
//
// Forwarding: each ToR knows its own hosts on access ports and hashes
// everything else over ALL of its uplink trunks (one ECMP group spanning
// every spine); each spine hashes a rack's hosts over the trunks of its
// bundle toward that rack. The hash is a pure function of (src, dst, flow)
// and table-programming order — see EthernetSwitch::learn_group — so path
// choice is bit-identical across reruns and shard counts (the ECMP
// determinism rule).
//
// Sharding: rack r lands on shard r % shards (hosts + ToR together, so
// intra-rack traffic stays shard-local), spine s on shard s % shards. The
// placement balances load only; results cannot depend on it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "fault/fleet.hpp"
#include "link/switch.hpp"

namespace xgbe::core {

struct FabricOptions {
  std::size_t racks = 2;
  std::size_t hosts_per_rack = 3;
  std::size_t spines = 1;
  /// Parallel trunks per (rack, spine) bundle — the ECMP trunking width.
  std::size_t trunks_per_spine = 2;
  /// Event-queue shards (>= 1; the fabric always runs the sharded engine).
  std::size_t shards = 1;
  /// Read by nothing: the engine runs every shard on the caller's thread.
  /// It stays only because the benchmark's perfbench/workloads.cpp assigns
  /// it twice (make_cell() and pool_slowdown()); it goes when that file
  /// next changes.
  unsigned threads = 0;
  std::uint32_t mtu = 9000;
  double host_rate_bps = 10e9;
  double trunk_rate_bps = 10e9;
  /// Intra-rack fiber; also the engine lookahead floor, so short values
  /// mean thin windows and many barriers.
  sim::SimTime host_propagation = sim::usec(2);
  sim::SimTime trunk_propagation = sim::usec(5);
  /// ToR access-port egress buffers are kept deliberately small so incast
  /// overdrive collapses visibly in the per-port counters.
  std::uint32_t tor_port_buffer_bytes = 256 * 1024;
  /// ToR trunk-facing ports get the deeper share of packet memory (as real
  /// switches allocate it), so a downlink incast does not masquerade as
  /// trunk congestion.
  std::uint32_t tor_uplink_buffer_bytes = 1024 * 1024;
  std::uint32_t spine_port_buffer_bytes = 1024 * 1024;
  /// Congestion control + ECN for every host in the fabric (threaded into
  /// the rack tuning profile; defaults preserve the golden baselines).
  tcp::CcAlgorithm cc = tcp::CcAlgorithm::kNewReno;
  bool ecn = false;
  /// Egress AQM on the ToR switches (RED / ECN marking). Inactive by
  /// default; pair kEcnThreshold with cc = kDctcp + ecn for the incast
  /// comparison. Spines keep tail drop — the shallow access ports are
  /// where the paper-style collapse lives.
  link::AqmSpec tor_aqm;
  /// Targeted faults, resolved at build time (rate overrides must be baked
  /// into the LinkSpec before the link exists).
  fault::FleetPlan faults;
};

/// A built fabric: the sharded testbed plus coordinate accessors.
class Fabric {
 public:
  explicit Fabric(const FabricOptions& options);

  Testbed& testbed() { return tb_; }
  const Testbed& testbed() const { return tb_; }
  const FabricOptions& options() const { return opt_; }

  std::size_t racks() const { return opt_.racks; }
  std::size_t hosts_per_rack() const { return opt_.hosts_per_rack; }
  std::size_t host_count() const { return opt_.racks * opt_.hosts_per_rack; }

  Host& host(std::size_t rack, std::size_t h) {
    return *hosts_.at(rack).at(h);
  }
  /// Rack-major flat indexing (host i = rack i/hosts_per_rack).
  Host& host_flat(std::size_t i) {
    return host(i / opt_.hosts_per_rack, i % opt_.hosts_per_rack);
  }
  link::EthernetSwitch& tor(std::size_t rack) { return *tors_.at(rack); }
  link::EthernetSwitch& spine(std::size_t s) { return *spines_.at(s); }
  link::Link& host_link(std::size_t rack, std::size_t h) {
    return *host_links_.at(rack).at(h);
  }
  link::Link& trunk(std::size_t rack, std::size_t spine, std::size_t k) {
    return *trunks_.at(rack).at(spine).at(k);
  }

  /// Rack uplink oversubscription: host capacity into a ToR over trunk
  /// capacity out of it.
  double oversubscription() const;

  /// Canonical component name a fault entry resolves to — the string the
  /// fleet doctor's findings use, so tests can assert localization.
  std::string fault_component(const fault::FleetFault& f) const;

  /// Registers every component (Testbed::register_metrics).
  void register_metrics(obs::Registry& reg) const { tb_.register_metrics(reg); }

  /// FNV-1a over the full registry snapshot JSON — the fleet determinism
  /// criterion (equal across reruns and shard counts).
  std::uint64_t fingerprint() const;

 private:
  FabricOptions opt_;
  Testbed tb_;
  std::vector<std::vector<Host*>> hosts_;            // [rack][h]
  std::vector<std::vector<link::Link*>> host_links_; // [rack][h]
  std::vector<link::EthernetSwitch*> tors_;
  std::vector<link::EthernetSwitch*> spines_;
  std::vector<std::vector<std::vector<link::Link*>>> trunks_;  // [r][s][k]
};

}  // namespace xgbe::core
