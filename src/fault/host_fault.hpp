// Deterministic host-path fault injection: resource exhaustion inside the
// end host, the side of the stack the paper identifies as the real
// bottleneck (§3.4, Fig 5).
//
// Where FaultPlan makes the *wire* hostile, HostFaultPlan makes the *host*
// run out of things: kmalloc refuses an skb under memory pressure, the
// driver stops replenishing the adapter's descriptor rings, interrupts go
// missing (or storm with coalescing off), the PCI-X bus degrades to a
// smaller effective MMRBC or freezes in arbitration, and the application
// process gets descheduled so the socket stops draining. Every decision
// draws from one sim::Rng seeded by the plan — same plan, same traffic,
// same faults, every run — and every injected event lands in a per-cause
// counter so the tools::DropLedger can reconcile frame conservation
// exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace xgbe::fault {

/// Half-open interval of simulated time: contains t iff start <= t < end.
struct TimeWindow {
  sim::SimTime start = 0;
  sim::SimTime end = 0;

  bool contains(sim::SimTime t) const { return t >= start && t < end; }
};

/// Composable host-resource fault description. Pure data, like FaultPlan:
/// hand it to core::Host::set_host_fault_plan and the host's kernel and
/// adapters consult the shared HostFaultInjector it arms.
struct HostFaultPlan {
  std::uint64_t seed = 0x4057ULL;  // "host"

  // --- (1) allocation failure ----------------------------------------------
  /// Probability one skb data-block allocation fails (kmalloc returning
  /// NULL under pressure). On the receive path the driver drops the frame
  /// (no replacement buffer for the ring); on the transmit path the blocked
  /// writer backs off and retries.
  double alloc_fail_rate = 0.0;
  /// Only blocks of at least this many bytes can fail — large orders feel
  /// the pressure first, exactly the §3.3 "stress on the kernel's
  /// memory-allocation subsystem" mechanism.
  std::uint32_t alloc_fail_min_block = 0;
  /// Total failures allowed before the pressure lifts; -1 = unlimited.
  int alloc_fail_budget = -1;
  /// Transmit-side retry backoff after a failed write-path allocation.
  sim::SimTime alloc_retry_backoff = sim::usec(50);

  // --- (2) descriptor-ring stalls ------------------------------------------
  /// Windows where the driver stops replenishing the receive ring: consumed
  /// descriptors stay consumed, the ring fills, and further frames land in
  /// rx_dropped_ring until the window ends and a refill catches up.
  std::vector<TimeWindow> rx_ring_stalls;
  /// Windows where no new transmit descriptors are posted: DMA pauses and
  /// the driver queue (tx_backlog) grows until the window ends.
  std::vector<TimeWindow> tx_ring_stalls;

  // --- (3) interrupt faults ------------------------------------------------
  /// Probability a due receive interrupt never fires. DMA'd frames sit in
  /// host memory until the next interrupt or the recovery poll.
  double irq_miss_rate = 0.0;
  /// Watchdog-poll period that rescues a missed interrupt (the driver's
  /// slow-path timer). Must be > 0 whenever irq_miss_rate > 0.
  sim::SimTime irq_recovery_poll = sim::msec(2);
  /// Windows where interrupt coalescing is forced off: one interrupt per
  /// frame, saturating the IRQ CPU (the paper's §3.3.2 storm case).
  std::vector<TimeWindow> irq_storms;

  // --- (4) DMA / PCI-X throttling ------------------------------------------
  /// Windows of degraded PCI-X service charged through hw::pcix.
  std::vector<TimeWindow> dma_throttles;
  /// Effective MMRBC inside a throttle window (clamped to the configured
  /// register value, so it can only degrade).
  std::uint32_t dma_mmrbc = 512;
  /// Extra per-frame bus-arbitration latency inside a throttle window.
  sim::SimTime dma_freeze = 0;

  // --- (5) scheduler pauses ------------------------------------------------
  /// Windows where the application process is descheduled: socket reads and
  /// writes entering the kernel are deferred until it lies in no window, so the
  /// receiver stops draining (sockbuf pressure, zero-window advertisement,
  /// persist probes) and the sender stops feeding.
  std::vector<TimeWindow> sched_pauses;

  bool active() const {
    return alloc_fail_rate > 0.0 || !rx_ring_stalls.empty() ||
           !tx_ring_stalls.empty() || irq_miss_rate > 0.0 ||
           !irq_storms.empty() || !dma_throttles.empty() ||
           !sched_pauses.empty();
  }

  // Builder-style helpers keep test matrices readable.
  HostFaultPlan& with_seed(std::uint64_t s) { seed = s; return *this; }
  HostFaultPlan& with_alloc_failure(double rate, int budget = -1,
                                    std::uint32_t min_block = 0) {
    alloc_fail_rate = rate;
    alloc_fail_budget = budget;
    alloc_fail_min_block = min_block;
    return *this;
  }
  HostFaultPlan& with_rx_ring_stall(sim::SimTime start, sim::SimTime end) {
    rx_ring_stalls.push_back(TimeWindow{start, end});
    return *this;
  }
  HostFaultPlan& with_tx_ring_stall(sim::SimTime start, sim::SimTime end) {
    tx_ring_stalls.push_back(TimeWindow{start, end});
    return *this;
  }
  HostFaultPlan& with_irq_miss(double rate,
                               sim::SimTime poll = sim::msec(2)) {
    irq_miss_rate = rate;
    irq_recovery_poll = poll;
    return *this;
  }
  HostFaultPlan& with_irq_storm(sim::SimTime start, sim::SimTime end) {
    irq_storms.push_back(TimeWindow{start, end});
    return *this;
  }
  HostFaultPlan& with_dma_throttle(sim::SimTime start, sim::SimTime end,
                                   std::uint32_t mmrbc = 512,
                                   sim::SimTime freeze = 0) {
    dma_throttles.push_back(TimeWindow{start, end});
    dma_mmrbc = mmrbc;
    dma_freeze = freeze;
    return *this;
  }
  HostFaultPlan& with_sched_pause(sim::SimTime start, sim::SimTime end) {
    sched_pauses.push_back(TimeWindow{start, end});
    return *this;
  }
};

/// Per-host fault tally. Frame-dropping causes (alloc_fail_rx, plus the
/// ring-stall drops the adapter books under rx_dropped_ring) feed the
/// tools::DropLedger conservation identity; the rest quantify degradation
/// that TCP absorbs without losing frames.
struct HostFaultCounters {
  std::uint64_t allocs_seen = 0;     // allocations offered to the injector
  std::uint64_t alloc_fail_rx = 0;   // rx frames dropped: no skb for ring
  std::uint64_t alloc_fail_tx = 0;   // tx writes deferred: -ENOBUFS + retry
  std::uint64_t ring_stall_drops = 0;  // ring drops attributable to a stall
  std::uint64_t tx_ring_stalls = 0;  // DMA attempts deferred by a tx stall
  std::uint64_t irq_missed = 0;      // due interrupts that never fired
  std::uint64_t irq_recovered = 0;   // batches rescued by the recovery poll
  std::uint64_t irq_storm_interrupts = 0;  // per-frame interrupts in a storm
  std::uint64_t dma_throttled = 0;   // frames charged degraded bus service
  std::uint64_t sched_defers = 0;    // app syscalls deferred by a pause

  HostFaultCounters& operator+=(const HostFaultCounters& o);
};

/// Runtime a host arms. The kernel asks it about allocations and scheduler
/// pauses; every adapter on the host asks it about ring stalls, interrupt
/// faults, and DMA throttling. All randomness comes from one seeded Rng
/// consulted only for faults the plan enables, in event order — so an
/// inactive injector draws nothing and perturbs nothing.
class HostFaultInjector {
 public:
  HostFaultInjector() : HostFaultInjector(HostFaultPlan{}) {}
  explicit HostFaultInjector(const HostFaultPlan& plan);

  /// Re-arms with a new plan (counters reset, RNG reseeded).
  void set_plan(const HostFaultPlan& plan);
  const HostFaultPlan& plan() const { return plan_; }
  bool active() const { return plan_.active(); }

  // --- (1) allocation failure ----------------------------------------------
  /// One skb data-block allocation of `block_bytes`; draws the RNG only
  /// when allocation failure is enabled and the block is eligible. `rx`
  /// selects which counter a failure lands in.
  bool alloc_fails(std::uint32_t block_bytes, bool rx);

  // --- (2) descriptor-ring stalls (pure time windows, no RNG) --------------
  bool rx_ring_stalled(sim::SimTime now) const;
  bool tx_ring_stalled(sim::SimTime now) const;
  /// The first instant at or after `now` in no stall window (overlapping
  /// and chained windows merge); 0 when not stalled.
  sim::SimTime rx_stall_end(sim::SimTime now) const;
  sim::SimTime tx_stall_end(sim::SimTime now) const;
  void count_ring_stall_drop() { ++counters_.ring_stall_drops; }
  void count_tx_stall() { ++counters_.tx_ring_stalls; }

  // --- (3) interrupt faults ------------------------------------------------
  /// One due interrupt raise; draws the RNG only when misses are enabled.
  bool interrupt_missed(sim::SimTime now);
  bool irq_storm(sim::SimTime now) const;
  void count_irq_recovered() { ++counters_.irq_recovered; }
  void count_storm_interrupt() { ++counters_.irq_storm_interrupts; }

  // --- (4) DMA throttling (pure time windows, no RNG) ----------------------
  bool dma_throttled(sim::SimTime now) const;
  void count_dma_throttled() { ++counters_.dma_throttled; }

  // --- (5) scheduler pauses (pure time windows, no RNG) --------------------
  /// When `now` falls inside a pause window, the time the app process runs
  /// again: the first instant in no pause window. Otherwise 0.
  sim::SimTime sched_resume_at(sim::SimTime now) const;
  void count_sched_defer() { ++counters_.sched_defers; }

  const HostFaultCounters& counters() const { return counters_; }

 private:
  HostFaultPlan plan_;
  sim::Rng rng_;
  std::uint64_t alloc_failures_ = 0;
  HostFaultCounters counters_;
};

/// One-line description of a plan ("alloc-fail 1%, 1 rx-ring stall, ...").
std::string describe(const HostFaultPlan& plan);

/// One-line counter rendering ("3 alloc-fail-rx, 2 irq missed, ...").
std::string describe(const HostFaultCounters& c);

}  // namespace xgbe::fault

namespace xgbe::obs {
class Registry;
}

namespace xgbe::fault {

/// Registers every HostFaultCounters field under `prefix` (e.g.
/// "host/tx/fault"). The injector must outlive the registry's probes.
void register_metrics(obs::Registry& reg, const std::string& prefix,
                      const HostFaultInjector& inj);

}  // namespace xgbe::fault
