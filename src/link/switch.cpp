#include "link/switch.hpp"

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace xgbe::link {

/// One switch port: receives frames from its link and forwards them into
/// the fabric; egress frames queue here until the link transmitter frees.
/// The queue depth is the link's backlog from this side, which the link
/// derives from its frames' completion marks, plus the frames the link
/// refused, each released by a zero-delay event as a transmitter freed at
/// once would be.
class EthernetSwitch::Port : public NetDevice {
 public:
  enum class AqmVerdict { kPass, kMark, kEarlyDrop };

  Port(EthernetSwitch& parent, int index, Link* wire, bool side_a)
      : parent_(parent), index_(index), wire_(wire), side_a_(side_a) {
    if (side_a_) {
      wire_->attach_a(this);
    } else {
      wire_->attach_b(this);
    }
    // Per-port deterministic RED stream: seed from the spec and the port
    // index so two ports never share a sequence, never zero.
    rng_ = parent_.spec_.aqm.seed ^
           (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index_ + 1));
    if (rng_ == 0) rng_ = 0x2545f4914f6cdd1dULL;
  }

  void deliver(const net::Packet& pkt) override {
    parent_.on_frame(index_, pkt);
  }

  void send(const net::Packet& pkt) {
    ++forwarded_;
    if (!wire_->transmit(this, pkt)) {
      refused_ += pkt.frame_bytes;
      parent_.sim_.schedule(
          0, [this, bytes = pkt.frame_bytes] { refused_ -= bytes; });
    }
    // The frame counts in the depth either way, on the wire or refused.
    const std::uint32_t depth = queued();
    if (depth > peak_queued_) peak_queued_ = depth;
  }

  void note_tail_drop() { ++dropped_full_; }
  void note_red_drop() { ++dropped_red_; }
  void note_ce_mark() { ++ce_marked_; }

  /// AQM decision for a frame about to enter this port's egress queue.
  /// Mutates the EWMA average and (on a probabilistic draw) the RNG, so it
  /// must be called exactly once per arriving frame.
  AqmVerdict aqm_decide(const net::Packet& pkt, const AqmSpec& aqm) {
    const std::uint64_t inst =
        static_cast<std::uint64_t>(queued()) + pkt.frame_bytes;
    if (aqm.mode == AqmMode::kEcnThreshold) {
      // DCTCP-style marking: instantaneous depth against K. Non-ECT
      // traffic is left to the tail-drop limit.
      if (pkt.ect && inst > aqm.mark_threshold_bytes) return AqmVerdict::kMark;
      return AqmVerdict::kPass;
    }
    // RED on the EWMA of the instantaneous depth (<<8 fixed point; the
    // truncating division is deterministic, which is all we need).
    const std::int64_t diff =
        static_cast<std::int64_t>(inst << 8) - avg_queued_;
    avg_queued_ += diff / (std::int64_t{1} << aqm.ewma_shift);
    const std::uint64_t avg_bytes =
        avg_queued_ > 0 ? static_cast<std::uint64_t>(avg_queued_) >> 8 : 0;
    if (avg_bytes < aqm.min_threshold_bytes) return AqmVerdict::kPass;
    bool hit = true;
    if (avg_bytes < aqm.max_threshold_bytes) {
      const std::uint64_t span =
          aqm.max_threshold_bytes - aqm.min_threshold_bytes;
      const std::uint64_t p_permil =
          aqm.max_p_permil * (avg_bytes - aqm.min_threshold_bytes) / span;
      hit = next_random() % 1000 < p_permil;
    }
    if (!hit) return AqmVerdict::kPass;
    if (aqm.mode == AqmMode::kRedEcn && pkt.ect) return AqmVerdict::kMark;
    return AqmVerdict::kEarlyDrop;
  }

  void set_buffer_override(std::uint32_t bytes) { buffer_override_ = bytes; }
  std::uint32_t buffer_limit(std::uint32_t spec_default) const {
    return buffer_override_ != 0 ? buffer_override_ : spec_default;
  }

  std::uint32_t queued() const { return wire_->backlog(this) + refused_; }
  std::uint32_t peak_queued() const { return peak_queued_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped_full() const { return dropped_full_; }
  std::uint64_t dropped_red() const { return dropped_red_; }
  std::uint64_t ce_marked() const { return ce_marked_; }
  const std::string& link_name() const {
    static const std::string kDetached;
    return wire_ != nullptr ? wire_->name() : kDetached;
  }

 private:
  EthernetSwitch& parent_;
  int index_;
  Link* wire_;
  bool side_a_;
  std::uint32_t refused_ = 0;  // refused by the link, not yet released
  std::uint32_t peak_queued_ = 0;
  std::uint32_t buffer_override_ = 0;  // 0: use the switch-wide spec value
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_full_ = 0;
  std::uint64_t dropped_red_ = 0;
  std::uint64_t ce_marked_ = 0;
  std::int64_t avg_queued_ = 0;  // RED EWMA, bytes << 8
  std::uint64_t rng_ = 1;        // xorshift64* state

  std::uint64_t next_random() {
    rng_ ^= rng_ >> 12;
    rng_ ^= rng_ << 25;
    rng_ ^= rng_ >> 27;
    return rng_ * 0x2545f4914f6cdd1dULL;
  }
};

EthernetSwitch::EthernetSwitch(sim::Simulator& simulator,
                               const SwitchSpec& spec, std::string name,
                               const obs::Instruments* obs)
    : sim_(simulator),
      spec_(spec),
      name_(std::move(name)),
      backplane_(simulator, name_ + "/backplane"),
      obs_(obs) {}

EthernetSwitch::~EthernetSwitch() = default;

int EthernetSwitch::add_port(Link* wire, bool side_a) {
  const int index = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<Port>(*this, index, wire, side_a));
  return index;
}

void EthernetSwitch::set_port_buffer(int port, std::uint32_t bytes) {
  ports_.at(static_cast<std::size_t>(port))->set_buffer_override(bytes);
}

void EthernetSwitch::learn(net::NodeId node, int port) {
  fdb_[node] = Route{{port}};
}

void EthernetSwitch::learn_group(net::NodeId node, std::vector<int> ports) {
  fdb_[node] = Route{std::move(ports)};
}

std::uint32_t EthernetSwitch::queued_bytes(int port) const {
  return ports_.at(static_cast<std::size_t>(port))->queued();
}

std::uint64_t EthernetSwitch::port_forwarded(int port) const {
  return ports_.at(static_cast<std::size_t>(port))->forwarded();
}

std::uint64_t EthernetSwitch::port_dropped_queue_full(int port) const {
  return ports_.at(static_cast<std::size_t>(port))->dropped_full();
}

std::uint32_t EthernetSwitch::port_peak_queued(int port) const {
  return ports_.at(static_cast<std::size_t>(port))->peak_queued();
}

const std::string& EthernetSwitch::port_link_name(int port) const {
  return ports_.at(static_cast<std::size_t>(port))->link_name();
}

std::uint64_t EthernetSwitch::port_dropped_red(int port) const {
  return ports_.at(static_cast<std::size_t>(port))->dropped_red();
}

std::uint64_t EthernetSwitch::port_ce_marked(int port) const {
  return ports_.at(static_cast<std::size_t>(port))->ce_marked();
}

int EthernetSwitch::pick_port(const Route& route,
                              const net::Packet& pkt) const {
  if (route.ports.size() == 1) return route.ports.front();
  // FNV-1a over the flow identity. Depends only on packet fields and the
  // programmed port order, so the path choice is identical across reruns,
  // shard counts, and thread counts (the ECMP determinism rule).
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(pkt.src));
  mix(static_cast<std::uint64_t>(pkt.dst));
  mix(static_cast<std::uint64_t>(pkt.flow));
  return route.ports[h % route.ports.size()];
}

void EthernetSwitch::on_frame(int /*ingress*/, const net::Packet& pkt) {
  net::Packet frame = pkt;
  fault::FaultDecision verdict;
  if (fault_.active()) {
    verdict = fault_.decide(pkt, sim_.now());
    if (verdict.drop) {
      obs_->drop(obs::EventType::kWireDrop, sim_.now(), pkt, name_.c_str(),
                 fault::cause_name(verdict.cause));
      return;
    }
    if (verdict.corrupt) frame.corrupted = true;
  }
  const auto it = fdb_.find(frame.dst);
  if (it == fdb_.end() || it->second.ports.empty()) {
    ++dropped_no_route_;
    obs_->drop(obs::EventType::kWireDrop, sim_.now(), pkt, name_.c_str(),
               "no-route");
    return;
  }
  const int egress = pick_port(it->second, frame);
  // Frame fully arrived and routed: the first wire hop ends, time in the
  // fabric + egress queue belongs to switch-queue (until the egress link's
  // transmit re-enters wire).
  if (obs_->spans) {
    obs_->spans->mark(frame, obs::Stage::kSwitchQueue, sim_.now());
  }
  // The fabric moves the frame to the egress queue; model its bandwidth as
  // a shared serialized resource plus fixed pipeline latency.
  const sim::SimTime fabric_time =
      sim::transfer_time(frame.frame_bytes, spec_.backplane_bps);
  backplane_.submit(fabric_time);
  const sim::SimTime cross = spec_.fabric_latency + fabric_time;
  // The crossing carries the frame by value: [this, egress, frame] is the
  // largest capture that InlineCallback's buffer is sized for.
  sim_.schedule(cross + verdict.extra_delay,
                [this, egress, frame]() { egress_frame(egress, frame); });
  if (verdict.duplicate) {
    sim_.schedule(cross + verdict.extra_delay + verdict.duplicate_delay,
                  [this, egress, frame]() { egress_frame(egress, frame); });
  }
}

void EthernetSwitch::egress_frame(int port, const net::Packet& pkt) {
  Port& out = *ports_.at(static_cast<std::size_t>(port));
  net::Packet frame = pkt;
  if (spec_.aqm.active()) {
    switch (out.aqm_decide(frame, spec_.aqm)) {
      case Port::AqmVerdict::kPass:
        break;
      case Port::AqmVerdict::kMark:
        frame.ce = true;
        ++ce_marked_;
        out.note_ce_mark();
        break;
      case Port::AqmVerdict::kEarlyDrop:
        ++dropped_red_;
        out.note_red_drop();
        obs_->drop(obs::EventType::kWireDrop, sim_.now(), pkt, name_.c_str(),
                   "red-early-drop");
        return;
    }
  }
  if (out.queued() + frame.frame_bytes >
      out.buffer_limit(spec_.port_buffer_bytes)) {
    ++dropped_queue_full_;  // tail drop
    out.note_tail_drop();
    obs_->drop(obs::EventType::kWireDrop, sim_.now(), pkt, name_.c_str(),
               "port-buffer-full");
    return;
  }
  ++forwarded_;
  out.send(frame);
}

void EthernetSwitch::register_metrics(obs::Registry& reg,
                                      const std::string& prefix) const {
  reg.counter(prefix + "/forwarded", [this] { return forwarded_; });
  reg.counter(prefix + "/dropped_no_route",
              [this] { return dropped_no_route_; });
  reg.counter(prefix + "/dropped_queue_full",
              [this] { return dropped_queue_full_; });
  // AQM counters only exist when AQM is on, so legacy tail-drop topologies
  // keep byte-identical registry snapshots.
  if (spec_.aqm.active()) {
    reg.counter(prefix + "/dropped_red", [this] { return dropped_red_; });
    reg.counter(prefix + "/ce_marked", [this] { return ce_marked_; });
  }
  fault::register_metrics(reg, prefix + "/fault", fault_);
  if (!spec_.port_metrics) return;
  for (const auto& port : ports_) {
    // Keyed by the attached link's name (unique within a fabric), so the
    // fleet doctor can tell which neighbor a congested port faces.
    const std::string p = prefix + "/port/" + port->link_name();
    const Port* raw = port.get();
    reg.counter(p + "/forwarded", [raw] { return raw->forwarded(); });
    reg.counter(p + "/dropped_queue_full",
                [raw] { return raw->dropped_full(); });
    if (spec_.aqm.active()) {
      reg.counter(p + "/dropped_red", [raw] { return raw->dropped_red(); });
      reg.counter(p + "/ce_marked", [raw] { return raw->ce_marked(); });
    }
    reg.gauge(p + "/queued_bytes",
              [raw] { return static_cast<double>(raw->queued()); });
    reg.gauge(p + "/peak_queued_bytes",
              [raw] { return static_cast<double>(raw->peak_queued()); });
  }
}

}  // namespace xgbe::link
