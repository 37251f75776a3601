// Store-and-forward Ethernet switch (Foundry FastIron 1500 class).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "link/device.hpp"
#include "link/link.hpp"
#include "obs/instruments.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace xgbe::link {

/// Active queue management flavor for a switch's egress ports.
enum class AqmMode : std::uint8_t {
  kTailDrop,      // classic: drop only when the port buffer is full
  kRed,           // RED early drop on the EWMA queue depth
  kRedEcn,        // RED, but ECT frames are CE-marked instead of dropped
  kEcnThreshold,  // DCTCP-style: mark ECT frames past an instantaneous K
};

/// Per-port AQM configuration. All arithmetic is integer and the random
/// draw is a per-port xorshift64* stream seeded from `seed` and the port
/// index, so drop/mark decisions are bit-identical across reruns and shard
/// counts (each switch's egress events execute in deterministic order on
/// its owning shard).
struct AqmSpec {
  AqmMode mode = AqmMode::kTailDrop;
  /// RED thresholds on the *average* queue depth in bytes: below min the
  /// frame always passes, above max it always drops/marks, in between the
  /// probability ramps linearly up to max_p_permil/1000.
  std::uint32_t min_threshold_bytes = 0;
  std::uint32_t max_threshold_bytes = 0;
  std::uint32_t max_p_permil = 100;
  /// EWMA gain: avg += (instantaneous - avg) / 2^ewma_shift per arrival
  /// (Floyd/Jacobson w_q = 1/512 at the default).
  int ewma_shift = 9;
  /// kEcnThreshold: mark when the instantaneous depth would exceed this
  /// (the DCTCP "K" parameter, in bytes).
  std::uint32_t mark_threshold_bytes = 0;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  bool active() const { return mode != AqmMode::kTailDrop; }
};

struct SwitchSpec {
  /// Forwarding latency through the fabric once a frame has fully arrived.
  /// Calibrated to the ~6 µs delta the paper measures between back-to-back
  /// (19 µs) and through-switch (25 µs) latency.
  sim::SimTime fabric_latency = sim::usec_f(5.9);
  /// Aggregate backplane bandwidth (48 Gb/s per the paper's FastIron 1500
  /// configuration note: "total backplane bandwidth (480 Gb/s)" in the
  /// datasheet, 48 Gb/s per module; far beyond these tests either way).
  double backplane_bps = 480e9;
  /// Output-queue capacity per port, bytes (tail drop beyond this).
  std::uint32_t port_buffer_bytes = 2 * 1024 * 1024;
  /// Opt-in per-port observability: register_metrics() additionally exposes
  /// each port's forwarded/tail-drop counters and queue-depth gauges under
  /// "<prefix>/port/<link-name>/...". Off by default so pre-existing
  /// topologies keep byte-identical registry snapshots (the golden-file
  /// contract); the fabric builder turns it on.
  bool port_metrics = false;
  /// Egress AQM (RED / ECN marking). Inactive by default: tail drop only,
  /// and no AQM counters appear in registry snapshots.
  AqmSpec aqm;
};

/// Output-queued store-and-forward switch. Each port terminates one Link;
/// forwarding is by destination NodeId (the testbed populates the table).
/// A destination may map to a *group* of ports (ECMP trunking): the egress
/// is picked by a deterministic hash of the frame's (src, dst, flow), so a
/// flow always takes one path (no intra-flow reordering) and the choice
/// depends only on packet fields and table-programming order — never on
/// shard partitioning.
class EthernetSwitch {
 public:
  /// `obs` is the bundle of the switch's shard: drops report kWireDrop with
  /// this switch's name, ingress marks the switch-queue stage.
  EthernetSwitch(sim::Simulator& simulator, const SwitchSpec& spec,
                 std::string name,
                 const obs::Instruments* obs = &obs::Instruments::none());
  ~EthernetSwitch();

  EthernetSwitch(const EthernetSwitch&) = delete;
  EthernetSwitch& operator=(const EthernetSwitch&) = delete;

  /// Adds a port wired to `wire`; the switch occupies `side_a` of the link
  /// if true, side b otherwise. Returns the port index.
  int add_port(Link* wire, bool side_a);

  /// Overrides one port's egress buffer capacity (real switches give uplink
  /// ports the deeper share of packet memory). 0 restores the switch-wide
  /// spec().port_buffer_bytes.
  void set_port_buffer(int port, std::uint32_t bytes);

  /// Maps a destination address to an egress port.
  void learn(net::NodeId node, int port);

  /// Maps a destination address to an ECMP group: each frame picks one of
  /// `ports` by flow hash. The port order is part of the forwarding state —
  /// program it identically across runs (topology construction does).
  void learn_group(net::NodeId node, std::vector<int> ports);

  const SwitchSpec& spec() const { return spec_; }
  const std::string& name() const { return name_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }
  std::uint64_t dropped_queue_full() const { return dropped_queue_full_; }
  /// AQM outcomes (0 unless spec().aqm is active).
  std::uint64_t dropped_red() const { return dropped_red_; }
  std::uint64_t ce_marked() const { return ce_marked_; }
  std::uint32_t queued_bytes(int port) const;

  // --- Per-port accounting --------------------------------------------------
  std::size_t port_count() const { return ports_.size(); }
  std::uint64_t port_forwarded(int port) const;
  std::uint64_t port_dropped_queue_full(int port) const;
  /// High-water mark of the port's egress queue, bytes.
  std::uint32_t port_peak_queued(int port) const;
  std::uint64_t port_dropped_red(int port) const;
  std::uint64_t port_ce_marked(int port) const;
  /// Name of the link the port terminates ("" when detached).
  const std::string& port_link_name(int port) const;

  /// Faults applied at ingress, before forwarding: a misbehaving fabric
  /// drops, corrupts, duplicates, or delays frames crossing it.
  void set_fault_plan(const fault::FaultPlan& plan) { fault_.set_plan(plan); }
  fault::FaultInjector& fault_injector() { return fault_; }
  const fault::FaultCounters& fault_counters() const {
    return fault_.counters();
  }

  /// Registers forwarding and fault counters under `prefix`; when
  /// spec().port_metrics is set, also per-port counters and queue gauges.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  class Port;
  /// One forwarding entry: a single port or an ECMP group.
  struct Route {
    std::vector<int> ports;
  };
  void on_frame(int ingress, const net::Packet& pkt);
  void egress_frame(int port, const net::Packet& pkt);
  int pick_port(const Route& route, const net::Packet& pkt) const;

  sim::Simulator& sim_;
  SwitchSpec spec_;
  std::string name_;
  sim::Resource backplane_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<net::NodeId, Route> fdb_;
  fault::FaultInjector fault_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_no_route_ = 0;
  std::uint64_t dropped_queue_full_ = 0;
  std::uint64_t dropped_red_ = 0;
  std::uint64_t ce_marked_ = 0;
  const obs::Instruments* obs_;
};

}  // namespace xgbe::link
