#include "nic/adapter.hpp"

#include "hw/memory.hpp"
#include "net/headers.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace xgbe::nic {

AdapterSpec intel_pro10gbe() { return AdapterSpec{}; }

AdapterSpec intel_e1000() {
  AdapterSpec s;
  s.model = "Intel PRO/1000 (e1000)";
  s.line_rate_bps = 1e9;
  s.max_mtu = 9000;  // jumbo-capable GbE (Intel e1000 / Tigon3 class)
  s.tx_ring = 256;
  s.rx_ring = 256;
  s.intr_delay = sim::usec(20);
  s.max_coalesce = 32;
  s.tx_fifo_bytes = 64 * 1024;
  return s;
}

Adapter::Adapter(sim::Simulator& simulator, const AdapterSpec& spec,
                 const hw::PcixSpec& bus, const hw::MemorySpec& mem,
                 std::uint32_t mmrbc, sim::Resource& membus, std::string name,
                 const obs::Instruments* obs, net::NodeId node)
    : sim_(simulator),
      spec_(spec),
      name_(std::move(name)),
      bus_spec_(bus),
      mem_spec_(mem),
      mmrbc_(mmrbc),
      pci_(simulator, name_ + "/pcix"),
      membus_(membus),
      corruption_rng_(spec.corruption_seed),
      obs_(obs),
      node_(node) {}

void Adapter::trace_ring(obs::EventType type, std::uint32_t slots,
                         const char* ring) {
  if (!obs_->trace) return;
  obs::TraceEvent ev;
  ev.at = sim_.now();
  ev.type = type;
  ev.src = node_;
  ev.len = slots;
  ev.where = name_.c_str();
  ev.detail = ring;
  obs_->trace->record(ev);
}

void Adapter::connect(link::Link* wire, bool side_a) {
  wire_ = wire;
  side_a_ = side_a;
  if (side_a) {
    wire->attach_a(this);
  } else {
    wire->attach_b(this);
  }
}

void Adapter::set_mmrbc(std::uint32_t mmrbc) {
  if (hw::is_valid_mmrbc(mmrbc)) mmrbc_ = mmrbc;
}

void Adapter::transmit(net::Packet pkt) {
  tx_queue_.push_back(std::move(pkt));
  if (!tx_dma_active_) dma_next_tx();
}

void Adapter::dma_next_tx() {
  if (tx_queue_.empty()) {
    tx_dma_active_ = false;
    return;
  }
  // Host fault: no transmit descriptors are being posted — DMA pauses and
  // the driver queue grows until the stall window ends.
  if (host_faults_active() && host_faults_->tx_ring_stalled(sim_.now())) {
    tx_dma_active_ = false;
    host_faults_->count_tx_stall();
    trace_ring(obs::EventType::kRingStall,
               static_cast<std::uint32_t>(tx_queue_.size()), "tx-ring");
    arm_tx_stall_recovery();
    arm_tx_wake();
    return;
  }
  // Stall DMA while the on-board FIFO is full (wire slower than the bus).
  if (tx_fifo_used() + tx_queue_.front().frame_bytes > spec_.tx_fifo_bytes) {
    tx_dma_active_ = false;
    arm_tx_wake();
    return;
  }
  tx_dma_active_ = true;
  net::Packet pkt = tx_queue_.front();
  tx_queue_.pop_front();
  // Descriptor posted and the DMA engine picked it up: tx-ring ends here.
  if (obs_->spans) obs_->spans->mark(pkt, obs::Stage::kTxDma, sim_.now());

  const sim::SimTime bus_time =
      (spec_.on_mch
           ? hw::bus_time(mem_spec_, pkt.frame_bytes, 1) + sim::nsec(150)
           : hw::dma_read_service_time(bus_spec_, pkt.frame_bytes,
                                       effective_mmrbc_now())) +
      dma_freeze_now();
  // The DMA read traverses host memory once; account the contention.
  membus_.submit(hw::bus_time(mem_spec_, pkt.frame_bytes, 1));
  pci_.submit(bus_time, [this, pkt]() {
    // The wire frames of a TSO super-segment free more than it occupies,
    // and the count saturates at zero, so the frames that left before now
    // must leave before it grows.
    tx_fifo_used_ = tx_fifo_used() + pkt.frame_bytes;
    emit_wire_frames(pkt);
    dma_next_tx();
  });
}

std::uint32_t Adapter::tx_fifo_used() {
  while (!tx_on_wire_.empty() && sim_.reached(tx_on_wire_.front().done)) {
    release_tx_fifo(tx_on_wire_.front().bytes);
    tx_on_wire_.pop_front();
  }
  return tx_fifo_used_;
}

void Adapter::arm_tx_wake() {
  if (tx_wake_armed_) return;
  tx_fifo_used();  // the front is now the first frame still serializing
  if (tx_on_wire_.empty()) return;
  const sim::Simulator::Mark next = tx_on_wire_.front().done;
  tx_wake_armed_ = true;
  sim_.schedule_reserved(next.time, next.seq, [this]() {
    tx_wake_armed_ = false;
    if (!tx_dma_active_) dma_next_tx();
  });
}

void Adapter::emit_wire_frames(const net::Packet& pkt) {
  if (wire_ == nullptr) return;
  auto send_one = [this](const net::Packet& frame) {
    ++tx_frames_;
    if (const auto done = wire_->transmit(this, frame)) {
      tx_on_wire_.push_back(OnWire{*done, frame.frame_bytes});
      return;
    }
    // Refused by the link: the FIFO lets go of it in a zero-delay event,
    // as a transmitter freed at once would.
    sim_.schedule(0, [this, bytes = frame.frame_bytes]() {
      tx_fifo_used();
      release_tx_fifo(bytes);
      if (!tx_dma_active_) dma_next_tx();
    });
  };

  if (pkt.tcp.tso_mss == 0 || pkt.payload_bytes <= pkt.tcp.tso_mss) {
    send_one(pkt);
    return;
  }
  // TSO: re-segment the super-segment into wire frames; headers are
  // replicated per frame by the adapter.
  std::uint32_t offset = 0;
  while (offset < pkt.payload_bytes) {
    const std::uint32_t chunk =
        std::min(pkt.tcp.tso_mss, pkt.payload_bytes - offset);
    net::Packet frame = pkt;
    frame.tcp.tso_mss = 0;
    frame.tcp.seq = pkt.tcp.seq + offset;
    frame.payload_bytes = chunk;
    frame.frame_bytes = net::tcp_frame_bytes(chunk, pkt.tcp.timestamps);
    frame.tcp.push = pkt.tcp.push && (offset + chunk == pkt.payload_bytes);
    send_one(frame);
    offset += chunk;
  }
}

void Adapter::deliver(const net::Packet& arrived) {
  if (!rx_fault_.active()) {
    receive_frame(arrived);
    return;
  }
  const fault::FaultDecision verdict = rx_fault_.decide(arrived, sim_.now());
  if (verdict.drop) return;
  net::Packet frame = arrived;
  if (verdict.corrupt) frame.corrupted = true;
  if (verdict.duplicate) {
    sim_.schedule(verdict.extra_delay + verdict.duplicate_delay,
                  [this, frame]() { receive_frame(frame); });
  }
  if (verdict.extra_delay > 0) {
    sim_.schedule(verdict.extra_delay,
                  [this, frame]() { receive_frame(frame); });
    return;
  }
  receive_frame(frame);
}

void Adapter::receive_frame(const net::Packet& arrived) {
  if (rx_ring_used_ >= spec_.rx_ring) {
    ++rx_dropped_ring_;
    // Attribute the drop when a replenish stall (not plain overload) is
    // what kept the ring full.
    if (host_faults_active() && rx_ring_unreplenished_ > 0) {
      host_faults_->count_ring_stall_drop();
    }
    obs_->drop(obs::EventType::kSegDrop, sim_.now(), arrived, name_.c_str(),
               "rx-ring-full");
    return;
  }
  ++rx_ring_used_;
  net::Packet pkt = arrived;
  // Last bit off the wire, frame in a ring buffer: wire stage ends here.
  if (obs_->spans) obs_->spans->mark(pkt, obs::Stage::kRxRing, sim_.now());
  const sim::SimTime bus_time =
      (spec_.on_mch
           ? hw::bus_time(mem_spec_, pkt.frame_bytes, 1) + sim::nsec(100)
           : hw::dma_write_service_time(bus_spec_, pkt.frame_bytes)) +
      dma_freeze_now();
  // The DMA write traverses host memory once.
  membus_.submit(hw::bus_time(mem_spec_, pkt.frame_bytes, 1));
  pci_.submit(bus_time, [this, pkt]() mutable {
    // RX DMA write landed in host memory; the interrupt hold-off begins.
    if (obs_->spans) {
      obs_->spans->mark(pkt, obs::Stage::kIntrCoalesce, sim_.now());
    }
    if (spec_.rx_corruption_rate > 0.0 && pkt.payload_bytes > 0 &&
        corruption_rng_.chance(spec_.rx_corruption_rate)) {
      pkt.corrupted = true;  // damaged after the adapter's checksum check
    }
    ++rx_frames_;
    rx_batch_.push_back(pkt);
    // An irq-storm window forces coalescing off: one interrupt per frame.
    const bool storm =
        host_faults_active() && host_faults_->irq_storm(sim_.now());
    if (spec_.intr_delay == 0 || storm ||
        rx_batch_.size() >= spec_.max_coalesce) {
      if (rx_timer_armed_) {
        sim_.cancel(rx_timer_);
        rx_timer_armed_ = false;
      }
      try_raise_interrupt();
    } else if (!rx_timer_armed_) {
      rx_timer_armed_ = true;
      rx_timer_ = sim_.schedule(spec_.intr_delay, [this]() {
        rx_timer_armed_ = false;
        try_raise_interrupt();
      });
    }
  });
}

void Adapter::try_raise_interrupt() {
  if (rx_batch_.empty()) return;
  if (host_faults_active()) {
    if (host_faults_->interrupt_missed(sim_.now())) {
      // The IRQ line never asserts; DMA'd frames sit in host memory until
      // the next interrupt raises the batch or the recovery poll fires.
      arm_irq_recovery_poll();
      return;
    }
    if (host_faults_->irq_storm(sim_.now())) {
      host_faults_->count_storm_interrupt();
    }
  }
  raise_interrupt();
}

void Adapter::raise_interrupt() {
  if (rx_batch_.empty()) return;
  ++interrupts_;
  // The driver refills the ring as it pulls the batch in the ISR — unless a
  // replenish stall is in force, in which case the consumed slots stay
  // consumed until the window ends.
  const auto batch_slots = static_cast<std::uint32_t>(rx_batch_.size());
  if (host_faults_active() && host_faults_->rx_ring_stalled(sim_.now())) {
    rx_ring_unreplenished_ += batch_slots;
    trace_ring(obs::EventType::kRingStall, batch_slots, "rx-ring");
    arm_rx_replenish_recovery();
  } else {
    rx_ring_used_ -= batch_slots;
  }
  if (obs_->spans) {
    // Interrupt asserted: hold-off ends, the kernel rx path starts.
    for (const net::Packet& p : rx_batch_) {
      obs_->spans->mark(p, obs::Stage::kRxStack, sim_.now());
    }
  }
  if (rx_handler_) rx_handler_(rx_batch_);
  rx_batch_.clear();
}

std::uint32_t Adapter::effective_mmrbc_now() {
  if (host_faults_active() && host_faults_->dma_throttled(sim_.now())) {
    const std::uint32_t clamp = host_faults_->plan().dma_mmrbc;
    if (hw::is_valid_mmrbc(clamp) && clamp < mmrbc_) return clamp;
  }
  return mmrbc_;
}

sim::SimTime Adapter::dma_freeze_now() {
  if (host_faults_active() && host_faults_->dma_throttled(sim_.now())) {
    host_faults_->count_dma_throttled();
    return host_faults_->plan().dma_freeze;
  }
  return 0;
}

void Adapter::arm_tx_stall_recovery() {
  if (tx_stall_recovery_armed_) return;
  const sim::SimTime end = host_faults_->tx_stall_end(sim_.now());
  if (end <= sim_.now()) return;
  tx_stall_recovery_armed_ = true;
  sim_.schedule(end - sim_.now(), [this]() {
    tx_stall_recovery_armed_ = false;
    if (!tx_dma_active_) dma_next_tx();
  });
}

void Adapter::arm_rx_replenish_recovery() {
  if (rx_replenish_armed_) return;
  const sim::SimTime end = host_faults_->rx_stall_end(sim_.now());
  if (end <= sim_.now()) return;
  rx_replenish_armed_ = true;
  sim_.schedule(end - sim_.now(), [this]() {
    rx_replenish_armed_ = false;
    // The driver's refill path catches up on every deferred slot at once.
    const std::uint32_t refilled =
        std::min(rx_ring_used_, rx_ring_unreplenished_);
    rx_ring_used_ -= refilled;
    rx_ring_unreplenished_ = 0;
    trace_ring(obs::EventType::kRingRefill, refilled, "rx-ring");
  });
}

void Adapter::register_metrics(obs::Registry& reg,
                               const std::string& prefix) const {
  reg.counter(prefix + "/tx_frames", [this] { return tx_frames_; });
  reg.counter(prefix + "/rx_frames", [this] { return rx_frames_; });
  reg.counter(prefix + "/rx_dropped_ring",
              [this] { return rx_dropped_ring_; });
  reg.counter(prefix + "/interrupts", [this] { return interrupts_; });
  fault::register_metrics(reg, prefix + "/rx_fault", rx_fault_);
}

void Adapter::arm_irq_recovery_poll() {
  if (irq_poll_armed_) return;
  irq_poll_armed_ = true;
  sim_.schedule(host_faults_->plan().irq_recovery_poll, [this]() {
    irq_poll_armed_ = false;
    if (!rx_batch_.empty()) {
      host_faults_->count_irq_recovered();
      raise_interrupt();
    }
  });
}

}  // namespace xgbe::nic
