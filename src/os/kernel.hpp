// Kernel runtime model: where TX/RX path costs are charged to host resources.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/host_fault.hpp"
#include "hw/system.hpp"
#include "net/packet.hpp"
#include "obs/instruments.hpp"
#include "os/config.hpp"
#include "os/costs.hpp"
#include "sim/block_fifo.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {
class Registry;
}

namespace xgbe::os {

/// Per-host kernel model.
///
/// Owns the host's CPU and memory-bus resources and charges the Linux 2.4
/// network path costs to them: syscalls and copies in process context on the
/// "app" CPU, interrupt and protocol processing on the IRQ CPU (the P4 Xeon
/// SMP kernel of the paper pins all NIC interrupts to a single CPU), with
/// the SMP kernel paying a locking/cache-bouncing multiplier. The
/// continuation-passing style keeps control flow inside the discrete-event
/// simulation: each method charges resource time and invokes the callback
/// when the modeled work completes.
class Kernel {
 public:
  // Completion continuations ride the event hot path, so they use the
  // simulator's allocation-free callback type; Deliver is held once for
  // every interrupt (set_deliver) and stays a std::function.
  using Done = sim::InlineCallback;
  using Deliver = std::function<void(const net::Packet&)>;

  /// `obs` is the host's instrument bundle: receive-path discards (failed
  /// skb allocation, software-checksum rejection) report into it.
  Kernel(sim::Simulator& simulator, const hw::SystemSpec& spec,
         const KernelConfig& config,
         const obs::Instruments* obs = &obs::Instruments::none());

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Transmit path -------------------------------------------------------
  /// Application write entering the socket: syscall + skb allocations +
  /// copy_from_user of `payload_bytes` (split across `nsegs` segments of
  /// data blocks sized `seg_block_bytes` each).
  void app_write(std::uint64_t payload_bytes, int nsegs,
                 std::uint32_t seg_block_bytes, Done done);

  /// Per-segment TCP/IP transmit work ending with the doorbell PIO; `emit`
  /// runs when the segment has been handed to the adapter.
  void segment_tx(const net::Packet& pkt, Done emit);

  // --- Receive path --------------------------------------------------------
  /// Where received packets go once protocol processing finishes (the
  /// host's demux). Unset, the kernel still charges the work and drops them.
  void set_deliver(Deliver deliver) { deliver_ = std::move(deliver); }

  /// Handles one NIC interrupt carrying `pkts` (already DMA'd to memory):
  /// each packet's continuation carries its own copy to the deliver
  /// function. `csum_offloaded` reflects the adapter's receive-checksum
  /// capability.
  void rx_interrupt(const std::vector<net::Packet>& pkts,
                    bool csum_offloaded);

  /// Application read: syscall + copy_to_user of `payload_bytes`.
  void app_read(std::uint64_t payload_bytes, Done done);

  // --- Resources & reporting ----------------------------------------------
  sim::Resource& membus() { return membus_; }
  sim::Resource& irq_cpu() { return *cpus_.front(); }
  sim::Resource& app_cpu();

  /// Number of CPUs the kernel actually uses (1 for the UP kernel).
  int active_cpus() const;

  /// Approximates /proc/loadavg over the current window: utilization of the
  /// busiest CPU the kernel uses.
  double cpu_load() const;
  void mark_load_window();

  /// Frames dropped because the software checksum caught corruption.
  std::uint64_t csum_drops() const { return csum_drops_; }

  /// Arms (or clears) the host-path fault injector shared with the host's
  /// adapters. The kernel consults it for skb-allocation failures and
  /// scheduler pauses; null or inactive means zero behavioral change.
  void set_host_faults(fault::HostFaultInjector* injector) {
    host_faults_ = injector;
  }

  const KernelCosts& costs() const { return costs_; }
  const KernelConfig& config() const { return config_; }
  const hw::SystemSpec& system() const { return spec_; }

  /// Registers checksum-drop and CPU-load probes under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

  /// Schedules `done` when both a CPU job and a memory-bus job complete;
  /// models a memcpy occupying core and bus simultaneously.
  void copy_job(sim::Resource& cpu, sim::SimTime cpu_cost,
                sim::SimTime bus_cost, Done done);

 private:
  double mode_factor() const { return costs_.mode_factor(config_.mode); }
  sim::SimTime per_packet_rx_cost(const net::Packet& pkt,
                                  bool csum_offloaded) const;
  bool host_faults_active() const {
    return host_faults_ != nullptr && host_faults_->active();
  }
  /// Pops the oldest waiting app_read continuation (its wakeup fired).
  Done next_woken_read();
  /// Host-fault deferral: parks `done` and schedules `retry` at `due`;
  /// the retry takes `done` back with unpark().
  void defer(sim::SimTime due, Done done, Done retry);
  Done unpark();

  sim::Simulator& sim_;
  hw::SystemSpec spec_;
  KernelConfig config_;
  KernelCosts costs_;
  sim::Resource membus_;
  std::vector<std::unique_ptr<sim::Resource>> cpus_;
  Deliver deliver_;
  // app_read continuations waiting out the reader's wakeup. Every wakeup
  // takes costs_.wakeup, so they fire in the order they were queued. The
  // wakeup event cannot carry its Done: an InlineCallback holding another
  // never fits the inline buffer.
  sim::BlockFifo<Done> woken_reads_;
  // Continuations of calls a host fault deferred, with the time their retry
  // fires, in park order; the retry carries only the sizes. Not a FIFO:
  // pause ends are not monotone in the call time when windows overlap out
  // of order. Retries due at one time fire in park order, so a retry's
  // entry is the first one due by now.
  struct Parked {
    sim::SimTime due = 0;
    Done done;
  };
  std::vector<Parked> parked_;
  std::uint64_t csum_drops_ = 0;
  fault::HostFaultInjector* host_faults_ = nullptr;
  const obs::Instruments* obs_;
};

}  // namespace xgbe::os
