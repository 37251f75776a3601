// Simulated host: hardware + kernel + adapters + TCP endpoints, assembled.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tuning.hpp"
#include "fault/host_fault.hpp"
#include "hw/system.hpp"
#include "net/packet.hpp"
#include "nic/adapter.hpp"
#include "obs/instruments.hpp"
#include "os/kernel.hpp"
#include "sim/simulator.hpp"
#include "tcp/conn_table.hpp"
#include "tcp/endpoint.hpp"
#include "tcp/listener.hpp"

namespace xgbe::core {

/// One machine in the testbed. Owns the kernel model (CPUs + memory bus),
/// one or more adapters (each with its own dedicated PCI-X segment, as in
/// the paper's testbed), and any TCP endpoints living on the host.
class Host {
 public:
  /// `obs` is the instrument bundle of the host's shard, handed on to the
  /// kernel, every adapter, endpoint and listener.
  Host(sim::Simulator& simulator, const hw::SystemSpec& system,
       const TuningProfile& tuning, const nic::AdapterSpec& adapter,
       net::NodeId node, std::string name,
       const obs::Instruments* obs = &obs::Instruments::none());

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  net::NodeId node() const { return node_; }
  const hw::SystemSpec& system() const { return system_; }
  const TuningProfile& tuning() const { return tuning_; }

  os::Kernel& kernel() { return *kernel_; }
  const os::Kernel& kernel() const { return *kernel_; }
  nic::Adapter& adapter(std::size_t i = 0) { return *adapters_.at(i); }
  const nic::Adapter& adapter(std::size_t i = 0) const {
    return *adapters_.at(i);
  }
  std::size_t adapter_count() const { return adapters_.size(); }

  /// Adds another adapter on its own PCI-X bus (the paper's dual-adapter
  /// test, §3.5.2). Returns the adapter index.
  std::size_t add_adapter(const nic::AdapterSpec& spec);

  /// Default endpoint configuration derived from the tuning profile.
  tcp::EndpointConfig endpoint_config() const;

  /// Creates a TCP endpoint bound to the given adapter; the host demuxes
  /// inbound segments matching (remote, flow) to it. The endpoint stays
  /// alive for the rest of the run (timers may reference it long after it
  /// closes); only its connection-table entry is unlinked on close.
  tcp::Endpoint& create_endpoint(const tcp::EndpointConfig& config,
                                 net::FlowId flow, net::NodeId remote,
                                 std::size_t adapter_index = 0);

  /// Installs the passive-open listener: demux misses that carry a bare SYN
  /// are offered to it, and it clones per-connection endpoints (configured
  /// with `ep_config`) into the connection table. One listener per host.
  tcp::Listener& listen(const tcp::ListenerConfig& config,
                        const tcp::EndpointConfig& ep_config,
                        std::size_t adapter_index = 0);
  tcp::Listener* listener() { return listener_.get(); }
  const tcp::Listener* listener() const { return listener_.get(); }

  // --- Connection-lifecycle accounting --------------------------------------
  /// Endpoints ever created on this host / transitions into kClosed.
  std::uint64_t conn_opens() const { return conn_opens_; }
  std::uint64_t conn_closes() const { return conn_closes_; }
  /// Live (non-closed) connections in the demux table.
  std::size_t connection_count() const { return conn_table_.size(); }
  /// RSTs this host generated for segments matching no connection.
  std::uint64_t rsts_sent() const { return rsts_sent_; }

  /// Lifecycle invariant sweep for sim::Watchdog: the connection-table
  /// identity (size == opens - closes) plus every endpoint's transient-state
  /// budget. Empty while healthy.
  std::string lifecycle_violation(sim::SimTime now) const;

  /// Opts this host's endpoints into lifecycle-counter registration (RSTs,
  /// aborts, handshake failures, ...). Off by default so classic-workload
  /// registry snapshots stay byte-identical; listen() turns it on.
  void set_lifecycle_metrics(bool enabled) { lifecycle_metrics_ = enabled; }

  /// Raw transmit used by pktgen: bypasses the TCP/IP stack entirely.
  void raw_transmit(const net::Packet& pkt, std::size_t adapter_index = 0);

  /// Sink for non-TCP traffic (pktgen receiver side).
  std::function<void(const net::Packet&)> raw_sink;

  /// CPU load approximation over the current measurement window.
  double cpu_load() const { return kernel_->cpu_load(); }
  void mark_load_window() { kernel_->mark_load_window(); }

  // --- Host-path fault injection -------------------------------------------
  /// Arms a host-resource fault plan: the kernel and every adapter on this
  /// host share one injector (one seeded RNG, per-cause counters). An
  /// inactive plan (the default) changes nothing, bit for bit.
  void set_host_fault_plan(const fault::HostFaultPlan& plan) {
    host_faults_.set_plan(plan);
  }
  fault::HostFaultInjector& host_faults() { return host_faults_; }
  const fault::HostFaultCounters& host_fault_counters() const {
    return host_faults_.counters();
  }

  // --- Observability --------------------------------------------------------
  /// Registers the whole host under `prefix`: kernel at "/kernel", adapters
  /// at "/nic<i>", endpoints at "/tcp/flow<id>", plus host-fault counters
  /// and demux accounting. Endpoints created after this call are not
  /// captured; register after the topology settles (Testbed does).
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

  // --- Drop-ledger accounting ----------------------------------------------
  /// Frames that completed kernel receive processing and reached demux —
  /// the host-boundary "delivered" term of the conservation identity.
  std::uint64_t frames_demuxed() const { return frames_demuxed_; }
  /// Demuxed frames no endpoint or raw sink claimed.
  std::uint64_t frames_unclaimed() const { return frames_unclaimed_; }
  /// TCP-level receive-buffer drops summed across this host's endpoints
  /// (post-delivery discards, recovered by retransmission).
  std::uint64_t sockbuf_drops() const;

 private:
  void demux(const net::Packet& pkt);
  void send_rst_for(const net::Packet& pkt, std::size_t adapter_index = 0);

  sim::Simulator& sim_;
  std::string name_;
  net::NodeId node_;
  hw::SystemSpec system_;
  TuningProfile tuning_;
  std::unique_ptr<os::Kernel> kernel_;
  std::vector<std::unique_ptr<nic::Adapter>> adapters_;
  // Owning store (append-only graveyard: endpoints are never destroyed
  // mid-run) plus the non-owning O(1) demux table of live connections.
  struct EndpointSlot {
    net::NodeId remote;
    net::FlowId flow;
    std::unique_ptr<tcp::Endpoint> ep;
  };
  std::vector<EndpointSlot> endpoints_;
  tcp::ConnTable conn_table_;
  std::unique_ptr<tcp::Listener> listener_;
  // Listeners replaced by a re-listen, parked so Registry probe closures
  // registered against them stay valid (see Host::listen()).
  std::vector<std::unique_ptr<tcp::Listener>> retired_listeners_;
  std::uint64_t conn_opens_ = 0;
  std::uint64_t conn_closes_ = 0;
  std::uint64_t rsts_sent_ = 0;
  bool lifecycle_metrics_ = false;
  fault::HostFaultInjector host_faults_;
  const obs::Instruments* obs_;
  std::uint64_t frames_demuxed_ = 0;
  std::uint64_t frames_unclaimed_ = 0;
};

}  // namespace xgbe::core
