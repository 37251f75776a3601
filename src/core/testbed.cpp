#include "core/testbed.hpp"

#include "obs/registry.hpp"
#include "obs/scrape.hpp"
#include "obs/span.hpp"

namespace xgbe::core {

Host& Testbed::add_host(const std::string& name,
                        const hw::SystemSpec& system,
                        const TuningProfile& tuning,
                        const nic::AdapterSpec& adapter) {
  return add_host_on(0, name, system, tuning, adapter);
}

Host& Testbed::add_host_on(std::size_t shard, const std::string& name,
                           const hw::SystemSpec& system,
                           const TuningProfile& tuning,
                           const nic::AdapterSpec& adapter) {
  hosts_.push_back(std::make_unique<Host>(shard_sim(shard), system, tuning,
                                          adapter, next_node(), name,
                                          shard_obs(shard)));
  host_shards_.push_back(shard);
  return *hosts_.back();
}

/// Shard index a host was placed on (0 in classic mode).
static std::size_t index_of(const std::vector<std::unique_ptr<Host>>& hosts,
                            const Host& host) {
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i].get() == &host) return i;
  }
  return 0;
}

link::Link& Testbed::make_link(std::size_t shard_a, std::size_t shard_b,
                               const link::LinkSpec& spec, std::string name) {
  if (engine_) {
    links_.push_back(std::make_unique<link::Link>(
        *engine_, shard_a, shard_b, spec, std::move(name),
        shard_obs(shard_a), shard_obs(shard_b)));
    // The lookahead is the minimum propagation anywhere in the topology —
    // computed over all links, which is always a safe (if conservative)
    // bound for the cross-shard subset.
    min_propagation_ = std::min(min_propagation_, spec.propagation);
    engine_->set_lookahead(min_propagation_);
  } else {
    links_.push_back(std::make_unique<link::Link>(sim_, spec, std::move(name),
                                                  shard_obs(0)));
  }
  return *links_.back();
}

link::Link& Testbed::connect(Host& a, Host& b, const link::LinkSpec& spec,
                             std::size_t a_adapter, std::size_t b_adapter) {
  const std::size_t shard_a = host_shards_[index_of(hosts_, a)];
  const std::size_t shard_b = host_shards_[index_of(hosts_, b)];
  link::Link& wire =
      make_link(shard_a, shard_b, spec, a.name() + "<->" + b.name());
  a.adapter(a_adapter).connect(&wire, /*side_a=*/true);
  b.adapter(b_adapter).connect(&wire, /*side_a=*/false);
  return wire;
}

link::EthernetSwitch& Testbed::add_switch(const link::SwitchSpec& spec,
                                          const std::string& name) {
  return add_switch_on(0, spec, name);
}

link::EthernetSwitch& Testbed::add_switch_on(std::size_t shard,
                                             const link::SwitchSpec& spec,
                                             const std::string& name) {
  switches_.push_back(std::make_unique<link::EthernetSwitch>(
      shard_sim(shard), spec,
      name.empty() ? "switch" + std::to_string(switches_.size()) : name,
      shard_obs(shard)));
  switch_shards_.push_back(shard);
  return *switches_.back();
}

std::size_t Testbed::shard_of(const Host& host) const {
  return host_shards_[index_of(hosts_, host)];
}

std::size_t Testbed::switch_shard(const link::EthernetSwitch& sw) const {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i].get() == &sw) return switch_shards_[i];
  }
  return 0;
}

link::Link& Testbed::connect_to_switch(Host& host, link::EthernetSwitch& sw,
                                       const link::LinkSpec& spec,
                                       std::size_t adapter_index,
                                       const std::string& link_name) {
  const std::size_t host_shard = host_shards_[index_of(hosts_, host)];
  const std::size_t sw_shard = switch_shard(sw);
  link::Link& wire = make_link(
      host_shard, sw_shard, spec,
      link_name.empty() ? host.name() + "<->switch" : link_name);
  host.adapter(adapter_index).connect(&wire, /*side_a=*/true);
  const int port = sw.add_port(&wire, /*side_a=*/false);
  sw.learn(host.node(), port);
  return wire;
}

Testbed::TrunkPorts Testbed::connect_switches(link::EthernetSwitch& a,
                                              link::EthernetSwitch& b,
                                              const link::LinkSpec& spec,
                                              const std::string& link_name) {
  link::Link& wire =
      make_link(switch_shard(a), switch_shard(b), spec, link_name);
  TrunkPorts trunk;
  trunk.wire = &wire;
  trunk.port_a = a.add_port(&wire, /*side_a=*/true);
  trunk.port_b = b.add_port(&wire, /*side_a=*/false);
  return trunk;
}

std::vector<link::Link*> Testbed::build_wan_path(
    Host& a, Host& b, const std::vector<link::LinkSpec>& circuits,
    const link::SwitchSpec& router) {
  // n circuits need n+1 routers; hosts hang off the edge routers with
  // short 10GbE links.
  const std::size_t nrouters = circuits.size() + 1;
  std::vector<link::EthernetSwitch*> routers;
  routers.reserve(nrouters);
  for (std::size_t i = 0; i < nrouters; ++i) {
    routers.push_back(&add_switch(router));
  }

  // Host access links.
  link::LinkSpec access;  // default 10GbE LAN spec
  connect_to_switch(a, *routers.front(), access);
  connect_to_switch(b, *routers.back(), access);

  std::vector<link::Link*> circuit_links;
  circuit_links.reserve(circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    // Routers from add_switch() live on shard 0.
    link::Link* wire =
        &make_link(0, 0, circuits[i], "circuit" + std::to_string(i));
    const int lo_port = routers[i]->add_port(wire, /*side_a=*/true);
    const int hi_port = routers[i + 1]->add_port(wire, /*side_a=*/false);
    // Teach every router the direction of each host.
    routers[i]->learn(b.node(), lo_port);
    routers[i + 1]->learn(a.node(), hi_port);
    circuit_links.push_back(wire);
  }
  return circuit_links;
}

Testbed::Connection Testbed::open_connection(
    Host& from, Host& to, const tcp::EndpointConfig& client_config,
    const tcp::EndpointConfig& server_config, std::size_t from_adapter,
    std::size_t to_adapter) {
  Connection conn;
  conn.flow = flow_counter_++;
  conn.client = &from.create_endpoint(client_config, conn.flow, to.node(),
                                      from_adapter);
  conn.server = &to.create_endpoint(server_config, conn.flow, from.node(),
                                    to_adapter);
  conn.server->listen();
  conn.client->connect();
  if (sampler_ != nullptr) {
    tcp::Endpoint* ep = conn.client;
    sampler_->watch(conn.flow, [ep]() {
      obs::FlowSampler::Sample s;
      s.cwnd_segments = ep->cwnd_segments();
      s.ssthresh_segments = ep->ssthresh();
      s.flight_bytes = ep->flight_bytes();
      s.rwnd_bytes = ep->peer_window();
      s.srtt = ep->srtt();
      s.cc_state = ep->cc_state();
      return s;
    });
  }
  return conn;
}

bool Testbed::run_until_established(const Connection& conn,
                                    sim::SimTime timeout) {
  const sim::SimTime deadline = now() + timeout;
  while (now() < deadline &&
         !(conn.client->established() && conn.server->established())) {
    const sim::SimTime step = sim::usec(100);
    run_until(std::min(deadline, now() + step));
  }
  return conn.client->established() && conn.server->established();
}

void Testbed::set_trace_sink(obs::TraceSink* sink) {
  for (obs::Instruments& bundle : instruments_) bundle.trace = sink;
}

void Testbed::set_shard_trace_sinks(std::vector<obs::TraceSink*> sinks) {
  for (std::size_t i = 0; i < instruments_.size(); ++i) {
    instruments_[i].trace = sinks.empty() ? nullptr : sinks.at(i);
  }
}

void Testbed::set_span_profiler(obs::SpanProfiler* spans) {
  // The span profiler keeps one journey map across all components. The
  // shards run a window one after another, so in sharded mode that map
  // would see journeys open and close in shard order: its open-journey cap
  // and its observer's order would depend on the partition. The sharded
  // testbed leaves it disarmed (classic runs are the profiling path — same
  // model, same code, one queue).
  if (engine_) return;
  instruments_.front().spans = spans;
}

void Testbed::set_metric_scraper(obs::MetricScraper* scraper) {
  // Both modes: the scraper observes boundaries through the TimeHook
  // interface, which the classic simulator fires between events and the
  // sharded engine fires at barriers, when every shard has reached it.
  scraper_ = scraper;
  if (engine_) {
    engine_->set_time_hook(scraper);
  } else {
    sim_.set_time_hook(scraper);
  }
}

void Testbed::set_flow_sampler(obs::FlowSampler* sampler) {
  // Classic mode only: the sampler's timer runs on one queue and reads
  // every watched endpoint, which in sharded mode would catch another
  // shard's endpoint wherever its turn in the window left it.
  if (engine_) return;
  sampler_ = sampler;
  if (sampler != nullptr) sampler->attach(sim_);
}

namespace {

/// Uniquifies duplicate component names: the first occurrence keeps its
/// name, later ones get "#<i>" appended so registry paths never collide.
class NameDedup {
 public:
  std::string unique(const std::string& name) {
    const int n = seen_[name]++;
    if (n == 0) return name;
    return name + "#" + std::to_string(n);
  }

 private:
  std::map<std::string, int> seen_;
};

}  // namespace

void Testbed::register_metrics(obs::Registry& reg) const {
  NameDedup hosts, links, switches;
  for (const auto& host : hosts_) {
    host->register_metrics(reg, hosts.unique(host->name()));
  }
  for (const auto& wire : links_) {
    wire->register_metrics(reg, "link/" + links.unique(wire->name()));
  }
  for (const auto& sw : switches_) {
    sw->register_metrics(reg, "switch/" + switches.unique(sw->name()));
  }
}

}  // namespace xgbe::core
