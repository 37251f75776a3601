// Network adapter model (Intel PRO/10GbE LR and e1000-class GbE).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/host_fault.hpp"
#include "hw/memory.hpp"
#include "hw/pcix.hpp"
#include "link/device.hpp"
#include "link/link.hpp"
#include "sim/block_fifo.hpp"
#include "sim/random.hpp"
#include "net/packet.hpp"
#include "obs/instruments.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {
class Registry;
}

namespace xgbe::nic {

struct AdapterSpec {
  std::string model = "Intel PRO/10GbE LR";
  double line_rate_bps = 10e9;
  std::uint32_t max_mtu = 16000;  // largest MTU the 82597EX supports
  bool csum_offload = true;       // TCP/IP checksum offload (§2)
  bool tso_capable = true;        // TCP segmentation offload ("Large Send")
  std::uint32_t tx_ring = 4096;
  std::uint32_t rx_ring = 4096;
  /// Interrupt coalescing delay: time the adapter waits after a receive
  /// before raising the interrupt, batching packets (§3.3.2). 0 disables.
  sim::SimTime intr_delay = sim::usec(5);
  /// Packets per interrupt cap; a full batch raises the interrupt early.
  std::uint32_t max_coalesce = 64;
  /// On-board transmit FIFO; DMA stalls when serialization falls behind.
  std::uint32_t tx_fifo_bytes = 512 * 1024;
  /// Probability that a received frame is damaged on the PCI/memory path
  /// after the adapter verified its checksum (bus errors, marginal
  /// hardware, heat — §3.5.3). Host-side software checksums catch these;
  /// adapter-offloaded checksums cannot.
  double rx_corruption_rate = 0.0;
  std::uint64_t corruption_seed = 0xc0de;
  /// Communication Streaming Architecture (§3.5.3): the adapter hangs off
  /// the memory controller hub instead of the PCI-X bus, so frame transfers
  /// move at memory speed with no I/O-bus transaction overhead.
  bool on_mch = false;
};

/// The 10GbE server adapter the paper studies.
AdapterSpec intel_pro10gbe();
/// Commodity GbE adapter for the multi-flow fan-in clients.
AdapterSpec intel_e1000();

/// Adapter runtime: owns its dedicated PCI-X bus segment, DMAs frames
/// between host memory and the wire, and coalesces receive interrupts.
class Adapter : public link::NetDevice {
 public:
  /// `rx_handler` is the kernel's interrupt entry: it receives the batch of
  /// frames already placed in host memory. The adapter reuses the batch
  /// vector for its next interrupt, so the handler copies what it keeps.
  using RxHandler = std::function<void(const std::vector<net::Packet>&)>;

  /// `obs` is the host's instrument bundle: ring-full drops and ring
  /// stalls/refills report into it, tagged with the host's `node`.
  Adapter(sim::Simulator& simulator, const AdapterSpec& spec,
          const hw::PcixSpec& bus, const hw::MemorySpec& mem,
          std::uint32_t mmrbc, sim::Resource& membus, std::string name,
          const obs::Instruments* obs = &obs::Instruments::none(),
          net::NodeId node = net::kInvalidNode);

  Adapter(const Adapter&) = delete;
  Adapter& operator=(const Adapter&) = delete;

  /// Wires the adapter to a link side.
  void connect(link::Link* wire, bool side_a);

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  /// Driver entry point: DMA the frame from host memory and serialize it.
  /// Honors TSO (tcp.tso_mss != 0 splits the payload into MSS-sized wire
  /// frames after a single DMA).
  void transmit(net::Packet pkt);

  /// Frame fully arrived from the wire (link::NetDevice).
  void deliver(const net::Packet& pkt) override;

  /// Reconfigures the interrupt coalescing delay (ethtool -C rx-usecs).
  void set_intr_delay(sim::SimTime delay) { spec_.intr_delay = delay; }
  /// Reconfigures the PCI-X MMRBC register (setpci).
  void set_mmrbc(std::uint32_t mmrbc);

  const AdapterSpec& spec() const { return spec_; }
  std::uint32_t mmrbc() const { return mmrbc_; }
  sim::Resource& pci_bus() { return pci_; }

  /// Frames waiting for DMA (driver queue depth); pktgen throttles on this.
  std::size_t tx_backlog() const { return tx_queue_.size(); }

  std::uint64_t tx_frames() const { return tx_frames_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t rx_dropped_ring() const { return rx_dropped_ring_; }
  std::uint64_t interrupts_raised() const { return interrupts_; }

  /// Faults applied to frames arriving from the wire, before the receive
  /// ring: a flaky MAC/PHY losing, damaging, or stuttering frames. The
  /// legacy rx_corruption_rate knob is independent and stays bit-identical.
  void set_rx_fault_plan(const fault::FaultPlan& plan) {
    rx_fault_.set_plan(plan);
  }
  fault::FaultInjector& rx_fault_injector() { return rx_fault_; }
  const fault::FaultCounters& rx_fault_counters() const {
    return rx_fault_.counters();
  }

  /// Arms (or clears) the host-path fault injector shared with the host's
  /// kernel. The adapter consults it for descriptor-ring stalls, missed /
  /// storming interrupts, and PCI-X DMA throttling; null or inactive means
  /// zero behavioral change.
  void set_host_faults(fault::HostFaultInjector* injector) {
    host_faults_ = injector;
  }

  /// Registers frame/interrupt counters and the rx fault tally under
  /// `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  void receive_frame(const net::Packet& arrived);
  void dma_next_tx();
  /// Bytes in the on-board tx FIFO. Lets go of the wire frames whose
  /// completion mark is reached first, so it is exact at any read.
  std::uint32_t tx_fifo_used();
  void release_tx_fifo(std::uint32_t bytes) {
    tx_fifo_used_ = tx_fifo_used_ > bytes ? tx_fifo_used_ - bytes : 0;
  }
  /// DMA stalled (full FIFO or tx-ring stall): retries it at the first
  /// wire completion not reached yet, since each completion frees FIFO
  /// space and, under a tx-ring stall, each retry counts. At most one wake
  /// is pending.
  void arm_tx_wake();
  void emit_wire_frames(const net::Packet& pkt);
  /// Traces a descriptor-ring event on `ring` covering `slots` slots.
  void trace_ring(obs::EventType type, std::uint32_t slots, const char* ring);
  void try_raise_interrupt();
  void raise_interrupt();
  bool host_faults_active() const {
    return host_faults_ != nullptr && host_faults_->active();
  }
  /// Extra PCI-X service time while a DMA-throttle window is open, and the
  /// MMRBC clamp it imposes (identity outside a window).
  std::uint32_t effective_mmrbc_now();
  sim::SimTime dma_freeze_now();
  void arm_tx_stall_recovery();
  void arm_rx_replenish_recovery();
  void arm_irq_recovery_poll();

  sim::Simulator& sim_;
  AdapterSpec spec_;
  std::string name_;
  hw::PcixSpec bus_spec_;
  hw::MemorySpec mem_spec_;
  std::uint32_t mmrbc_;
  sim::Resource pci_;
  sim::Resource& membus_;
  link::Link* wire_ = nullptr;
  bool side_a_ = true;
  sim::Rng corruption_rng_;
  fault::FaultInjector rx_fault_;
  fault::HostFaultInjector* host_faults_ = nullptr;
  RxHandler rx_handler_;

  std::deque<net::Packet> tx_queue_;  // awaiting DMA
  bool tx_dma_active_ = false;
  bool tx_wake_armed_ = false;
  // FIFO bytes, counted down lazily by tx_fifo_used() as the wire frames in
  // tx_on_wire_ (completion mark and bytes, in transmit order) complete.
  std::uint32_t tx_fifo_used_ = 0;
  struct OnWire {
    sim::Simulator::Mark done;
    std::uint32_t bytes = 0;
  };
  sim::BlockFifo<OnWire> tx_on_wire_;

  // DMA'd, awaiting interrupt. One vector for every interrupt: it keeps its
  // capacity, so the NIC->kernel handoff allocates nothing in steady state.
  std::vector<net::Packet> rx_batch_;
  sim::EventId rx_timer_{};
  bool rx_timer_armed_ = false;
  std::uint32_t rx_ring_used_ = 0;

  // Host-fault bookkeeping: ring slots consumed but not replenished during
  // an rx-ring stall, and the one-shot recovery events that undo each fault.
  std::uint32_t rx_ring_unreplenished_ = 0;
  bool rx_replenish_armed_ = false;
  bool tx_stall_recovery_armed_ = false;
  bool irq_poll_armed_ = false;

  std::uint64_t tx_frames_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t rx_dropped_ring_ = 0;
  std::uint64_t interrupts_ = 0;

  const obs::Instruments* obs_;
  net::NodeId node_;
};

}  // namespace xgbe::nic
