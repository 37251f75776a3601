#include "core/host.hpp"

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace xgbe::core {

Host::Host(sim::Simulator& simulator, const hw::SystemSpec& system,
           const TuningProfile& tuning, const nic::AdapterSpec& adapter,
           net::NodeId node, std::string name, const obs::Instruments* obs)
    : sim_(simulator),
      name_(std::move(name)),
      node_(node),
      system_(system),
      tuning_(tuning),
      obs_(obs) {
  os::KernelConfig kc;
  kc.mode = tuning.kernel;
  kc.rx_api = tuning.rx_api;
  kc.rcvbuf_bytes = tuning.rcvbuf;
  kc.sndbuf_bytes = tuning.sndbuf;
  kc.txqueuelen = tuning.txqueuelen;
  kc.header_splitting = tuning.header_splitting;
  kernel_ = std::make_unique<os::Kernel>(simulator, system_, kc, obs_);
  kernel_->set_host_faults(&host_faults_);
  kernel_->set_deliver([this](const net::Packet& pkt) { demux(pkt); });
  add_adapter(adapter);
}

std::size_t Host::add_adapter(const nic::AdapterSpec& spec) {
  nic::AdapterSpec s = spec;
  s.intr_delay = tuning_.intr_delay;
  s.csum_offload = spec.csum_offload && tuning_.csum_offload;
  s.on_mch = s.on_mch || tuning_.adapter_on_mch;
  s.rx_corruption_rate = tuning_.rx_corruption_rate;
  const std::uint32_t mmrbc =
      tuning_.mmrbc != 0 ? tuning_.mmrbc : system_.default_mmrbc;
  const std::size_t index = adapters_.size();
  adapters_.push_back(std::make_unique<nic::Adapter>(
      sim_, s, system_.pcix, system_.memory, mmrbc, kernel_->membus(),
      name_ + "/eth" + std::to_string(index), obs_, node_));
  nic::Adapter* raw = adapters_.back().get();
  raw->set_host_faults(&host_faults_);
  raw->set_rx_handler([this, raw](const std::vector<net::Packet>& batch) {
    kernel_->rx_interrupt(batch, raw->spec().csum_offload);
  });
  return index;
}

tcp::EndpointConfig Host::endpoint_config() const {
  tcp::EndpointConfig c;
  c.mtu = tuning_.mtu;
  c.timestamps = tuning_.timestamps;
  c.rcvbuf = tuning_.rcvbuf;
  c.sndbuf = tuning_.sndbuf;
  c.tso = tuning_.tso;
  c.cc = tuning_.cc;
  c.ecn = tuning_.ecn;
  return c;
}

tcp::Endpoint& Host::create_endpoint(const tcp::EndpointConfig& config,
                                     net::FlowId flow, net::NodeId remote,
                                     std::size_t adapter_index) {
  tcp::Endpoint::Hooks hooks;
  hooks.kernel = kernel_.get();
  hooks.local_node = node_;
  hooks.remote_node = remote;
  hooks.flow = flow;
  hooks.obs = obs_;
  nic::Adapter* out = adapters_.at(adapter_index).get();
  hooks.emit = [this, out](const net::Packet& pkt) {
    kernel_->segment_tx(pkt, [out, pkt]() { out->transmit(pkt); });
  };
  endpoints_.push_back(EndpointSlot{
      remote, flow,
      std::make_unique<tcp::Endpoint>(sim_, config, std::move(hooks))});
  tcp::Endpoint* ep = endpoints_.back().ep.get();
  if (conn_table_.insert(remote, flow, ep)) {
    ++conn_opens_;
    ep->set_close_hook([this, remote, flow, ep]() {
      if (conn_table_.erase(remote, flow, ep)) ++conn_closes_;
    });
  }
  return *ep;
}

tcp::Listener& Host::listen(const tcp::ListenerConfig& config,
                            const tcp::EndpointConfig& ep_config,
                            std::size_t adapter_index) {
  tcp::Listener::Hooks hooks;
  hooks.make_endpoint = [this, ep_config,
                         adapter_index](net::NodeId remote,
                                        net::FlowId flow) -> tcp::Endpoint& {
    return create_endpoint(ep_config, flow, remote, adapter_index);
  };
  hooks.send_rst = [this, adapter_index](const net::Packet& pkt) {
    send_rst_for(pkt, adapter_index);
  };
  hooks.obs = obs_;
  // Retire (never destroy) a replaced listener: a Registry armed before a
  // re-listen holds probe closures over the old listener's counters, and a
  // scraper can fire them at any later boundary. Listeners schedule no
  // events, so parking them is free; retired listeners keep their counters
  // but are not re-registered.
  if (listener_) retired_listeners_.push_back(std::move(listener_));
  listener_ = std::make_unique<tcp::Listener>(sim_, config, std::move(hooks));
  lifecycle_metrics_ = true;
  return *listener_;
}

void Host::register_metrics(obs::Registry& reg,
                            const std::string& prefix) const {
  kernel_->register_metrics(reg, prefix + "/kernel");
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    adapters_[i]->register_metrics(reg, prefix + "/nic" + std::to_string(i));
  }
  // Paths are unique per flow and the registry sorts by path, so snapshots
  // stay deterministic regardless of creation order.
  for (const auto& slot : endpoints_) {
    const std::string ep_prefix =
        prefix + "/tcp/flow" + std::to_string(slot.flow);
    slot.ep->register_metrics(reg, ep_prefix);
    if (lifecycle_metrics_) slot.ep->register_lifecycle_metrics(reg, ep_prefix);
  }
  if (lifecycle_metrics_) {
    reg.counter(prefix + "/conn_opens", [this] { return conn_opens_; });
    reg.counter(prefix + "/conn_closes", [this] { return conn_closes_; });
    reg.counter(prefix + "/rsts_unmatched", [this] { return rsts_sent_; });
    reg.gauge(prefix + "/connections",
              [this] { return static_cast<double>(conn_table_.size()); });
  }
  if (listener_) listener_->register_metrics(reg, prefix + "/listener");
  fault::register_metrics(reg, prefix + "/host_fault", host_faults_);
  reg.counter(prefix + "/frames_demuxed", [this] { return frames_demuxed_; });
  reg.counter(prefix + "/frames_unclaimed",
              [this] { return frames_unclaimed_; });
}

void Host::raw_transmit(const net::Packet& pkt, std::size_t adapter_index) {
  adapters_.at(adapter_index)->transmit(pkt);
}

void Host::send_rst_for(const net::Packet& in, std::size_t adapter_index) {
  // RFC 793 reset for a segment matching no connection: echo the ACK as our
  // sequence when it carried one, otherwise acknowledge the whole segment.
  net::Packet pkt;
  pkt.protocol = net::Protocol::kTcp;
  pkt.flow = in.flow;
  pkt.src = node_;
  pkt.dst = in.src;
  pkt.frame_bytes = net::tcp_frame_bytes(0, false);
  pkt.tcp.flags.rst = true;
  if (in.tcp.flags.ack) {
    pkt.tcp.seq = in.tcp.ack;
  } else {
    pkt.tcp.flags.ack = true;
    pkt.tcp.ack = in.tcp.seq + in.payload_bytes +
                  (in.tcp.flags.syn ? 1 : 0) + (in.tcp.flags.fin ? 1 : 0);
  }
  ++rsts_sent_;
  if (obs_->trace) {
    obs_->trace->record_packet(obs::EventType::kRst, sim_.now(), pkt, "host",
                               "no-connection");
  }
  nic::Adapter* out = adapters_.at(adapter_index).get();
  kernel_->segment_tx(pkt, [out, pkt]() { out->transmit(pkt); });
}

void Host::demux(const net::Packet& pkt) {
  ++frames_demuxed_;
  if (pkt.protocol == net::Protocol::kTcp) {
    if (tcp::Endpoint* ep = conn_table_.find(pkt.src, pkt.flow)) {
      ep->on_packet(pkt);
      return;
    }
    if (listener_ != nullptr && pkt.tcp.flags.syn && !pkt.tcp.flags.ack &&
        !pkt.tcp.flags.rst) {
      listener_->on_syn(pkt);
      return;
    }
    ++frames_unclaimed_;
    // Live segments to a dead or unknown connection earn a RST so the
    // peer's retransmissions die quickly; RSTs are never answered.
    if (!pkt.tcp.flags.rst) send_rst_for(pkt);
    return;
  }
  if (raw_sink) {
    raw_sink(pkt);
  } else {
    ++frames_unclaimed_;
  }
}

std::string Host::lifecycle_violation(sim::SimTime now) const {
  if (conn_table_.size() != conn_opens_ - conn_closes_) {
    return name_ + ": connection table holds " +
           std::to_string(conn_table_.size()) + " entries, expected opens " +
           std::to_string(conn_opens_) + " - closes " +
           std::to_string(conn_closes_);
  }
  for (const auto& slot : endpoints_) {
    const std::string stuck = slot.ep->stuck_violation(now);
    if (!stuck.empty()) {
      return name_ + "/flow" + std::to_string(slot.flow) + ": " + stuck;
    }
  }
  return {};
}

std::uint64_t Host::sockbuf_drops() const {
  std::uint64_t drops = 0;
  for (const auto& slot : endpoints_) {
    drops += slot.ep->stats().rcv_buffer_drops;
  }
  return drops;
}

}  // namespace xgbe::core
