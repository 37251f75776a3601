// Testbed: builds topologies of hosts, switches, and WAN paths, and opens
// TCP connections across them.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/tuning.hpp"
#include "hw/presets.hpp"
#include "link/link.hpp"
#include "link/switch.hpp"
#include "obs/instruments.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {
class FlowSampler;
class MetricScraper;
class SpanProfiler;
}

namespace xgbe::core {

class Testbed {
 public:
  Testbed() : instruments_(1) {}

  /// Sharded testbed: the topology is partitioned across `shards` event
  /// queues advanced by the sharded engine. Components placed on different
  /// shards may only talk through links (which is all the model ever does).
  /// Results are bit-identical for any shard count.
  explicit Testbed(std::size_t shards)
      : engine_(std::make_unique<sim::ShardedEngine>(shards)),
        instruments_(engine_->shard_count()) {}

  bool sharded() const { return engine_ != nullptr; }
  sim::ShardedEngine& engine() { return *engine_; }

  /// Classic-mode simulator. In sharded mode use shard_simulator()/engine().
  sim::Simulator& simulator() { return sim_; }
  sim::Simulator& shard_simulator(std::size_t shard) {
    return engine_ ? engine_->shard(shard) : sim_;
  }
  sim::SimTime now() const { return engine_ ? engine_->now() : sim_.now(); }

  /// Creates a host with one adapter. Default adapter: Intel PRO/10GbE.
  /// In sharded mode the host lands on shard 0.
  Host& add_host(const std::string& name, const hw::SystemSpec& system,
                 const TuningProfile& tuning,
                 const nic::AdapterSpec& adapter = nic::intel_pro10gbe());

  /// Sharded placement: creates the host on the given shard. The shard
  /// assignment is part of the topology, not of the execution — any
  /// assignment produces bit-identical results; a good one balances load.
  Host& add_host_on(std::size_t shard, const std::string& name,
                    const hw::SystemSpec& system, const TuningProfile& tuning,
                    const nic::AdapterSpec& adapter = nic::intel_pro10gbe());

  /// Back-to-back crossover fiber between two hosts (Fig 2a).
  link::Link& connect(Host& a, Host& b,
                      const link::LinkSpec& spec = link::LinkSpec{},
                      std::size_t a_adapter = 0, std::size_t b_adapter = 0);

  /// Adds a switch (Fig 2b/2c: the Foundry FastIron 1500 by default).
  /// In sharded mode the switch lands on shard 0; use add_switch_on().
  /// An empty `name` keeps the historical "switch<n>" auto-name.
  link::EthernetSwitch& add_switch(
      const link::SwitchSpec& spec = link::SwitchSpec{},
      const std::string& name = "");

  /// Sharded placement for switches.
  link::EthernetSwitch& add_switch_on(
      std::size_t shard, const link::SwitchSpec& spec = link::SwitchSpec{},
      const std::string& name = "");

  /// Wires a host adapter to a switch port and teaches the switch the
  /// host's address. An empty `link_name` keeps the historical
  /// "<host><->switch" auto-name.
  link::Link& connect_to_switch(Host& host, link::EthernetSwitch& sw,
                                const link::LinkSpec& spec = link::LinkSpec{},
                                std::size_t adapter_index = 0,
                                const std::string& link_name = "");

  /// A switch-to-switch trunk: the link plus the port index it got on each
  /// switch (inputs for ECMP group programming).
  struct TrunkPorts {
    link::Link* wire = nullptr;
    int port_a = -1;  // on `a` (the link's A side)
    int port_b = -1;  // on `b`
  };

  /// Wires two switches together (ToR uplink, spine trunk, ...). No
  /// forwarding entries are learned — the caller programs routes (or ECMP
  /// groups) on both switches explicitly.
  TrunkPorts connect_switches(link::EthernetSwitch& a, link::EthernetSwitch& b,
                              const link::LinkSpec& spec,
                              const std::string& link_name);

  /// Builds a WAN path between two hosts: host links into edge routers and
  /// a chain of circuits between routers (§4.1, Fig 9). Returns the
  /// circuit links (for drop/queue statistics).
  std::vector<link::Link*> build_wan_path(
      Host& a, Host& b, const std::vector<link::LinkSpec>& circuits,
      const link::SwitchSpec& router);

  /// A client-server endpoint pair.
  struct Connection {
    tcp::Endpoint* client = nullptr;  // active opener / typical sender
    tcp::Endpoint* server = nullptr;  // passive opener / typical receiver
    net::FlowId flow = 0;
  };

  /// Creates endpoints on both hosts and starts the three-way handshake.
  Connection open_connection(Host& from, Host& to,
                             const tcp::EndpointConfig& client_config,
                             const tcp::EndpointConfig& server_config,
                             std::size_t from_adapter = 0,
                             std::size_t to_adapter = 0);

  /// Runs the simulation until the connection is established (or timeout).
  /// Returns true on success.
  bool run_until_established(const Connection& conn,
                             sim::SimTime timeout = sim::sec(5));

  void run_for(sim::SimTime duration) {
    if (engine_) {
      engine_->run_until(engine_->now() + duration);
    } else {
      sim_.run_until(sim_.now() + duration);
    }
  }
  void run() {
    if (engine_) {
      engine_->run();
    } else {
      sim_.run();
    }
  }
  void run_until(sim::SimTime horizon) {
    if (engine_) {
      engine_->run_until(horizon);
    } else {
      sim_.run_until(horizon);
    }
  }

  net::NodeId next_node() { return node_counter_++; }
  /// Allocates a fresh testbed-unique flow id (workloads that open
  /// connections outside open_connection(), e.g. core::churn).
  net::FlowId next_flow() { return flow_counter_++; }

  /// Shard a host was placed on (0 in classic mode).
  std::size_t shard_of(const Host& host) const;
  /// Simulator a host's components schedule on: its shard's queue in
  /// sharded mode, the classic simulator otherwise. Workloads that schedule
  /// events touching one host's state (arrival processes, synchronized
  /// senders) must use this so the event fires on the owning shard.
  sim::Simulator& simulator_for(const Host& host) {
    return shard_sim(shard_of(host));
  }

  // --- Component iteration (drop-ledger and doctor harvesting) -------------
  std::size_t host_count() const { return hosts_.size(); }
  const Host& host_at(std::size_t i) const { return *hosts_.at(i); }
  Host& host_at(std::size_t i) { return *hosts_.at(i); }
  std::size_t link_count() const { return links_.size(); }
  const link::Link& link_at(std::size_t i) const { return *links_.at(i); }
  std::size_t switch_count() const { return switches_.size(); }
  const link::EthernetSwitch& switch_at(std::size_t i) const {
    return *switches_.at(i);
  }

  // --- Observability --------------------------------------------------------
  // Every component reports into its shard's instrument bundle, handed to
  // it when it was built. Arming stores into the bundles, so it reaches the
  // components built before the call and after it alike.

  /// Arms the trace sink across the whole testbed; null disarms it, so a
  /// sink can be disarmed before it goes away. Classic mode only — the
  /// shards run a window one after another, so a single sink shared across
  /// them would record in shard order, and its ring would evict by it; use
  /// set_shard_trace_sinks().
  void set_trace_sink(obs::TraceSink* sink);
  obs::TraceSink* trace_sink() const { return instruments_.front().trace; }

  /// Sharded tracing: one sink per shard (size must equal the shard
  /// count; empty disarms every shard). Every component records into its
  /// own shard's sink, and each link direction into its transmitter's, so
  /// each sink records in its shard's time order. Merge the sinks with
  /// obs::merge_sorted() for a partition-invariant view.
  void set_shard_trace_sinks(std::vector<obs::TraceSink*> sinks);

  /// Arms the span profiler across the whole testbed; null disarms it. The
  /// profiler must outlive the testbed or be disarmed (set to null or to
  /// another profiler) before it goes away. A sharded testbed ignores the
  /// call and stays disarmed.
  void set_span_profiler(obs::SpanProfiler* spans);
  obs::SpanProfiler* span_profiler() const {
    return instruments_.front().spans;
  }

  /// Arms the flow sampler: every connection opened *after* this call gets
  /// a read-only probe of the client endpoint's cwnd/ssthresh/flight/
  /// rwnd/srtt, sampled every sampler interval. Arm before
  /// open_connection(); existing connections are not revisited.
  void set_flow_sampler(obs::FlowSampler* sampler);
  obs::FlowSampler* flow_sampler() const { return sampler_; }

  /// Arms a metric scraper (null disarms) as the testbed's time hook: in
  /// classic mode it fires between events at each scrape boundary; in
  /// sharded mode it fires at lookahead barriers, once committed time
  /// reaches each boundary. Either way it schedules nothing and only reads
  /// probes, so armed runs are bit-identical to unarmed — executed-event
  /// counts included — for any shard count. The scraper (and the Registry
  /// it samples) must outlive the armed run or be disarmed first.
  void set_metric_scraper(obs::MetricScraper* scraper);
  obs::MetricScraper* metric_scraper() const { return scraper_; }

  /// Registers the whole testbed: hosts by name, links under
  /// "link/<name>", switches under "switch/<name>" (duplicate names get a
  /// "#<i>" suffix so paths stay unique). Call after the topology and
  /// connections exist.
  void register_metrics(obs::Registry& reg) const;

 private:
  /// Simulator a component on `shard` should schedule on.
  sim::Simulator& shard_sim(std::size_t shard) {
    return engine_ ? engine_->shard(shard) : sim_;
  }
  /// Instrument bundle components on `shard` report into.
  const obs::Instruments* shard_obs(std::size_t shard) const {
    return &instruments_.at(engine_ ? shard : 0);
  }
  link::Link& make_link(std::size_t shard_a, std::size_t shard_b,
                        const link::LinkSpec& spec, std::string name);
  std::size_t switch_shard(const link::EthernetSwitch& sw) const;

  // Declared before the component containers: destroyed after them, so
  // events still queued at teardown die after the components do. Their
  // callbacks hold component pointers and frames by value and run nothing
  // when destroyed, so that order is safe.
  sim::Simulator sim_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  // One per shard, sized once so the addresses components hold stay put.
  std::vector<obs::Instruments> instruments_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<link::Link>> links_;
  std::vector<std::unique_ptr<link::EthernetSwitch>> switches_;
  std::vector<std::size_t> host_shards_;    // parallel to hosts_
  std::vector<std::size_t> switch_shards_;  // parallel to switches_
  sim::SimTime min_propagation_ = std::numeric_limits<sim::SimTime>::max();
  net::NodeId node_counter_ = 1;
  net::FlowId flow_counter_ = 1;
  obs::FlowSampler* sampler_ = nullptr;
  obs::MetricScraper* scraper_ = nullptr;
};

}  // namespace xgbe::core
