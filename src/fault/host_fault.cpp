#include "fault/host_fault.hpp"

#include <cstdio>

#include "obs/registry.hpp"

namespace xgbe::fault {
namespace {

bool in_any(const std::vector<TimeWindow>& windows, sim::SimTime t) {
  for (const TimeWindow& w : windows) {
    if (w.contains(t)) return true;
  }
  return false;
}

// The first instant at or after `t` that lies in no window, so overlapping
// and chained windows merge whatever order they are listed in; 0 when `t`
// lies in none. Each pass moves the end to a later window end, so it stops.
sim::SimTime end_of(const std::vector<TimeWindow>& windows, sim::SimTime t) {
  sim::SimTime end = t;
  for (bool moved = true; moved;) {
    moved = false;
    for (const TimeWindow& w : windows) {
      if (w.contains(end)) {
        end = w.end;
        moved = true;
      }
    }
  }
  return end == t ? 0 : end;
}

}  // namespace

HostFaultCounters& HostFaultCounters::operator+=(const HostFaultCounters& o) {
  allocs_seen += o.allocs_seen;
  alloc_fail_rx += o.alloc_fail_rx;
  alloc_fail_tx += o.alloc_fail_tx;
  ring_stall_drops += o.ring_stall_drops;
  tx_ring_stalls += o.tx_ring_stalls;
  irq_missed += o.irq_missed;
  irq_recovered += o.irq_recovered;
  irq_storm_interrupts += o.irq_storm_interrupts;
  dma_throttled += o.dma_throttled;
  sched_defers += o.sched_defers;
  return *this;
}

HostFaultInjector::HostFaultInjector(const HostFaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {}

void HostFaultInjector::set_plan(const HostFaultPlan& plan) {
  plan_ = plan;
  rng_.reseed(plan.seed);
  alloc_failures_ = 0;
  counters_ = HostFaultCounters{};
}

bool HostFaultInjector::alloc_fails(std::uint32_t block_bytes, bool rx) {
  if (plan_.alloc_fail_rate <= 0.0) return false;
  ++counters_.allocs_seen;
  if (block_bytes < plan_.alloc_fail_min_block) return false;
  if (plan_.alloc_fail_budget >= 0 &&
      alloc_failures_ >=
          static_cast<std::uint64_t>(plan_.alloc_fail_budget)) {
    return false;
  }
  if (!rng_.chance(plan_.alloc_fail_rate)) return false;
  ++alloc_failures_;
  if (rx) {
    ++counters_.alloc_fail_rx;
  } else {
    ++counters_.alloc_fail_tx;
  }
  return true;
}

bool HostFaultInjector::rx_ring_stalled(sim::SimTime now) const {
  return in_any(plan_.rx_ring_stalls, now);
}

bool HostFaultInjector::tx_ring_stalled(sim::SimTime now) const {
  return in_any(plan_.tx_ring_stalls, now);
}

sim::SimTime HostFaultInjector::rx_stall_end(sim::SimTime now) const {
  return end_of(plan_.rx_ring_stalls, now);
}

sim::SimTime HostFaultInjector::tx_stall_end(sim::SimTime now) const {
  return end_of(plan_.tx_ring_stalls, now);
}

bool HostFaultInjector::interrupt_missed(sim::SimTime) {
  if (plan_.irq_miss_rate <= 0.0) return false;
  if (!rng_.chance(plan_.irq_miss_rate)) return false;
  ++counters_.irq_missed;
  return true;
}

bool HostFaultInjector::irq_storm(sim::SimTime now) const {
  return in_any(plan_.irq_storms, now);
}

bool HostFaultInjector::dma_throttled(sim::SimTime now) const {
  return in_any(plan_.dma_throttles, now);
}

sim::SimTime HostFaultInjector::sched_resume_at(sim::SimTime now) const {
  return end_of(plan_.sched_pauses, now);
}

std::string describe(const HostFaultPlan& plan) {
  char buf[96];
  std::string out = "host-seed ";
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(plan.seed));
  out += buf;
  if (plan.alloc_fail_rate > 0.0) {
    std::snprintf(buf, sizeof(buf), ", alloc-fail %.3g%%",
                  plan.alloc_fail_rate * 100.0);
    out += buf;
    if (plan.alloc_fail_budget >= 0) {
      std::snprintf(buf, sizeof(buf), " (budget %d)", plan.alloc_fail_budget);
      out += buf;
    }
    if (plan.alloc_fail_min_block > 0) {
      std::snprintf(buf, sizeof(buf), " (blocks >= %u)",
                    plan.alloc_fail_min_block);
      out += buf;
    }
  }
  if (!plan.rx_ring_stalls.empty()) {
    std::snprintf(buf, sizeof(buf), ", %zu rx-ring stall(s)",
                  plan.rx_ring_stalls.size());
    out += buf;
  }
  if (!plan.tx_ring_stalls.empty()) {
    std::snprintf(buf, sizeof(buf), ", %zu tx-ring stall(s)",
                  plan.tx_ring_stalls.size());
    out += buf;
  }
  if (plan.irq_miss_rate > 0.0) {
    std::snprintf(buf, sizeof(buf), ", irq-miss %.3g%% (poll %.0f us)",
                  plan.irq_miss_rate * 100.0,
                  sim::to_microseconds(plan.irq_recovery_poll));
    out += buf;
  }
  if (!plan.irq_storms.empty()) {
    std::snprintf(buf, sizeof(buf), ", %zu irq storm(s)",
                  plan.irq_storms.size());
    out += buf;
  }
  if (!plan.dma_throttles.empty()) {
    std::snprintf(buf, sizeof(buf), ", %zu dma throttle(s) (mmrbc %u)",
                  plan.dma_throttles.size(), plan.dma_mmrbc);
    out += buf;
  }
  if (!plan.sched_pauses.empty()) {
    std::snprintf(buf, sizeof(buf), ", %zu sched pause(s)",
                  plan.sched_pauses.size());
    out += buf;
  }
  return out;
}

std::string describe(const HostFaultCounters& c) {
  char buf[64];
  std::string out;
  bool first = true;
  auto part = [&](std::uint64_t n, const char* label) {
    if (n == 0) return;
    if (!first) out += ", ";
    std::snprintf(buf, sizeof(buf), "%llu %s",
                  static_cast<unsigned long long>(n), label);
    out += buf;
    first = false;
  };
  part(c.alloc_fail_rx, "alloc-fail-rx");
  part(c.alloc_fail_tx, "alloc-fail-tx");
  part(c.ring_stall_drops, "ring-stall drops");
  part(c.tx_ring_stalls, "tx stalls");
  part(c.irq_missed, "irq missed");
  part(c.irq_recovered, "irq recovered");
  part(c.irq_storm_interrupts, "storm irqs");
  part(c.dma_throttled, "dma throttled");
  part(c.sched_defers, "sched defers");
  if (first) out = "clean";
  return out;
}

void register_metrics(obs::Registry& reg, const std::string& prefix,
                      const HostFaultInjector& inj) {
  auto field = [&](const char* name,
                   std::uint64_t HostFaultCounters::* member) {
    reg.counter(prefix + "/" + name,
                [&inj, member] { return inj.counters().*member; });
  };
  field("allocs_seen", &HostFaultCounters::allocs_seen);
  field("alloc_fail_rx", &HostFaultCounters::alloc_fail_rx);
  field("alloc_fail_tx", &HostFaultCounters::alloc_fail_tx);
  field("ring_stall_drops", &HostFaultCounters::ring_stall_drops);
  field("tx_ring_stalls", &HostFaultCounters::tx_ring_stalls);
  field("irq_missed", &HostFaultCounters::irq_missed);
  field("irq_recovered", &HostFaultCounters::irq_recovered);
  field("irq_storm_interrupts", &HostFaultCounters::irq_storm_interrupts);
  field("dma_throttled", &HostFaultCounters::dma_throttled);
  field("sched_defers", &HostFaultCounters::sched_defers);
}

}  // namespace xgbe::fault
