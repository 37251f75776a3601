// Passive-open listener: bounded SYN queue + accept backlog.
//
// A Listener turns inbound SYNs into per-connection Endpoints through a
// host-supplied factory, bounds how many half-open (SYN_RECEIVED) children
// and established-but-unaccepted connections may exist at once, and refuses
// overflow gracefully — counted, optionally answered with a RST, never hung.
// That is the incast/SYN-flood degradation mode: the listener sheds load
// instead of wedging the host.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "net/packet.hpp"
#include "obs/instruments.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {
class Registry;
}

namespace xgbe::tcp {

class Endpoint;

struct ListenerConfig {
  /// Max half-open (SYN_RECEIVED) children at once (Linux tcp_max_syn_backlog
  /// in miniature). 0 refuses every SYN.
  std::uint32_t syn_backlog = 64;
  /// Max established connections waiting in the accept queue (listen()'s
  /// backlog argument). Ignored while an on_accept callback is installed —
  /// immediate dispatch never queues.
  std::uint32_t accept_backlog = 64;
  /// Refused SYNs are answered with a RST (connection refused) when true;
  /// silently dropped when false (the client retries into the same wall
  /// until its handshake gives up).
  bool rst_on_overflow = true;
};

struct ListenerStats {
  std::uint64_t syns_received = 0;
  std::uint64_t accepted = 0;           // children that reached ESTABLISHED
  std::uint64_t refused_syn_queue = 0;  // SYN arrived with the queue full
  std::uint64_t refused_accept_queue = 0;  // accept backlog had no room
  std::uint64_t failed_handshakes = 0;  // children that died half-open
};

class Listener {
 public:
  struct Hooks {
    /// Builds (and registers for demux) the per-connection endpoint for an
    /// accepted SYN. The listener immediately drives it through kListen.
    std::function<Endpoint&(net::NodeId remote, net::FlowId flow)>
        make_endpoint;
    /// Sends a refusal RST answering `pkt` (host TX path).
    std::function<void(const net::Packet& pkt)> send_rst;
    /// The host's instrument bundle: refused SYNs report kListenDrop.
    const obs::Instruments* obs = &obs::Instruments::none();
  };

  Listener(sim::Simulator& simulator, const ListenerConfig& config,
           Hooks hooks);

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Inbound SYN with no matching connection (host demux miss path).
  void on_syn(const net::Packet& pkt);

  /// Immediate-dispatch accept: invoked as each child establishes. When
  /// unset, children queue (bounded by accept_backlog) for accept().
  std::function<void(Endpoint&)> on_accept;

  /// Pops the oldest queued established connection (null when empty).
  Endpoint* accept();

  std::uint32_t half_open() const { return half_open_; }
  std::size_t accept_queue_depth() const { return ready_.size(); }
  /// High-water marks of the two backlog queues over the listener's life —
  /// how close a burst came to the refusal cliff even if nothing overflowed.
  std::uint32_t peak_half_open() const { return peak_half_open_; }
  std::uint32_t peak_accept_queue() const { return peak_accept_queue_; }
  const ListenerStats& stats() const { return stats_; }
  const ListenerConfig& config() const { return config_; }

  /// Registers the listener counters plus a half-open gauge under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  void refuse(const net::Packet& pkt, const char* why);

  sim::Simulator& sim_;
  ListenerConfig config_;
  Hooks hooks_;
  ListenerStats stats_;
  std::uint32_t half_open_ = 0;
  std::uint32_t peak_half_open_ = 0;
  std::uint32_t peak_accept_queue_ = 0;
  std::deque<Endpoint*> ready_;
};

}  // namespace xgbe::tcp
