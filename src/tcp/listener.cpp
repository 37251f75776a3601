#include "tcp/listener.hpp"

#include <algorithm>
#include <memory>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tcp/endpoint.hpp"

namespace xgbe::tcp {

Listener::Listener(sim::Simulator& simulator, const ListenerConfig& config,
                   Hooks hooks)
    : sim_(simulator), config_(config), hooks_(std::move(hooks)) {}

void Listener::refuse(const net::Packet& pkt, const char* why) {
  if (hooks_.obs->trace) {
    hooks_.obs->trace->record_packet(obs::EventType::kListenDrop, sim_.now(),
                                     pkt, "listener", why);
  }
  if (config_.rst_on_overflow && hooks_.send_rst) hooks_.send_rst(pkt);
}

void Listener::on_syn(const net::Packet& pkt) {
  ++stats_.syns_received;
  if (half_open_ >= config_.syn_backlog) {
    ++stats_.refused_syn_queue;
    refuse(pkt, "syn-queue-full");
    return;
  }
  // Admission also respects the accept queue: starting a handshake we could
  // not hand over just moves the overflow two RTTs later.
  if (!on_accept && ready_.size() >= config_.accept_backlog) {
    ++stats_.refused_accept_queue;
    refuse(pkt, "accept-queue-full");
    return;
  }
  Endpoint& child = hooks_.make_endpoint(pkt.src, pkt.flow);
  child.listen();
  ++half_open_;
  peak_half_open_ = std::max(peak_half_open_, half_open_);
  // One flag shared by both continuations decides which side of the
  // half-open accounting the child leaves through.
  auto established = std::make_shared<bool>(false);
  child.on_established = [this, &child, established]() {
    *established = true;
    --half_open_;
    ++stats_.accepted;
    if (on_accept) {
      on_accept(child);
    } else if (ready_.size() < config_.accept_backlog) {
      ready_.push_back(&child);
      peak_accept_queue_ = std::max(
          peak_accept_queue_, static_cast<std::uint32_t>(ready_.size()));
    } else {
      // Raced past the admission check (callback removed mid-run): shed it.
      ++stats_.refused_accept_queue;
      child.abort();
    }
  };
  child.on_closed = [this, &child, established]() {
    if (!*established) {
      --half_open_;
      ++stats_.failed_handshakes;
    }
    // Established connections may sit in the accept queue; drop dead ones.
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (*it == &child) {
        ready_.erase(it);
        break;
      }
    }
  };
  // Drive the SYN through the child's own kListen path; retransmitted SYNs
  // reach it directly via the connection table from here on.
  child.on_packet(pkt);
}

Endpoint* Listener::accept() {
  if (ready_.empty()) return nullptr;
  Endpoint* ep = ready_.front();
  ready_.pop_front();
  return ep;
}

void Listener::register_metrics(obs::Registry& reg,
                                const std::string& prefix) const {
  auto field = [&](const char* name,
                   std::uint64_t ListenerStats::* member) {
    reg.counter(prefix + "/" + name,
                [this, member] { return stats_.*member; });
  };
  field("syns_received", &ListenerStats::syns_received);
  field("accepted", &ListenerStats::accepted);
  field("refused_syn_queue", &ListenerStats::refused_syn_queue);
  field("refused_accept_queue", &ListenerStats::refused_accept_queue);
  field("failed_handshakes", &ListenerStats::failed_handshakes);
  reg.gauge(prefix + "/half_open",
            [this] { return static_cast<double>(half_open_); });
  reg.gauge(prefix + "/accept_queue",
            [this] { return static_cast<double>(ready_.size()); });
  reg.gauge(prefix + "/half_open_peak",
            [this] { return static_cast<double>(peak_half_open_); });
  reg.gauge(prefix + "/accept_queue_peak",
            [this] { return static_cast<double>(peak_accept_queue_); });
}

}  // namespace xgbe::tcp
