#include "core/fabric.hpp"

#include <algorithm>

#include "hw/presets.hpp"
#include "obs/registry.hpp"

namespace xgbe::core {

namespace {

std::string host_name(std::size_t rack, std::size_t h) {
  return "r" + std::to_string(rack) + "h" + std::to_string(h);
}

std::string trunk_name(std::size_t rack, std::size_t spine, std::size_t k) {
  return "trunk-tor" + std::to_string(rack) + "-spine" + std::to_string(spine) +
         "-" + std::to_string(k);
}

}  // namespace

Fabric::Fabric(const FabricOptions& options)
    : opt_(options), tb_(std::max<std::size_t>(1, options.shards)) {
  const std::size_t shards = std::max<std::size_t>(1, opt_.shards);

  const auto system = hw::presets::pe2650();
  auto tuning = TuningProfile::with_big_windows(opt_.mtu);
  tuning.cc = opt_.cc;
  tuning.ecn = opt_.ecn;

  // Rate overrides (the misconfigured link) must be known before the link is
  // built, so resolve them up front.
  const auto link_rate = [&](fault::FleetFault::Target target, std::size_t rack,
                             std::size_t a, std::size_t b,
                             double fallback) -> double {
    for (const auto& f : opt_.faults.faults) {
      if (f.target != target || f.rate_override_bps <= 0.0) continue;
      if (f.rack != rack) continue;
      if (target == fault::FleetFault::Target::kHostLink && f.host == a) {
        return f.rate_override_bps;
      }
      if (target == fault::FleetFault::Target::kTrunk && f.spine == a &&
          f.trunk == b) {
        return f.rate_override_bps;
      }
    }
    return fallback;
  };

  link::SwitchSpec tor_spec;
  tor_spec.port_buffer_bytes = opt_.tor_port_buffer_bytes;
  tor_spec.port_metrics = true;
  tor_spec.aqm = opt_.tor_aqm;
  link::SwitchSpec spine_spec;
  spine_spec.port_buffer_bytes = opt_.spine_port_buffer_bytes;
  spine_spec.port_metrics = true;

  // --- Racks: ToR + hosts + access links, all on the rack's shard ----------
  hosts_.resize(opt_.racks);
  host_links_.resize(opt_.racks);
  tors_.reserve(opt_.racks);
  for (std::size_t r = 0; r < opt_.racks; ++r) {
    const std::size_t shard = r % shards;
    tors_.push_back(
        &tb_.add_switch_on(shard, tor_spec, "tor" + std::to_string(r)));
    for (std::size_t h = 0; h < opt_.hosts_per_rack; ++h) {
      Host& host = tb_.add_host_on(shard, host_name(r, h), system, tuning);
      link::LinkSpec access;
      access.rate_bps = link_rate(fault::FleetFault::Target::kHostLink, r, h, 0,
                                  opt_.host_rate_bps);
      access.propagation = opt_.host_propagation;
      access.detail_metrics = true;
      link::Link& wire =
          tb_.connect_to_switch(host, *tors_[r], access, /*adapter_index=*/0,
                                host.name() + "-tor" + std::to_string(r));
      hosts_[r].push_back(&host);
      host_links_[r].push_back(&wire);
    }
  }

  // --- Spine tier + trunk bundles ------------------------------------------
  spines_.reserve(opt_.spines);
  for (std::size_t s = 0; s < opt_.spines; ++s) {
    spines_.push_back(&tb_.add_switch_on(s % shards, spine_spec,
                                         "spine" + std::to_string(s)));
  }

  // Trunks are created rack-major, spine-major, so ECMP group port order —
  // and with it the hash mapping — is a pure function of the geometry.
  trunks_.resize(opt_.racks);
  // ToR-side uplink ports per rack (spine-major order) and spine-side ports
  // per (rack, spine) bundle, collected for group programming below.
  std::vector<std::vector<int>> tor_uplinks(opt_.racks);
  std::vector<std::vector<std::vector<int>>> spine_ports(
      opt_.racks, std::vector<std::vector<int>>(opt_.spines));
  for (std::size_t r = 0; r < opt_.racks; ++r) {
    trunks_[r].resize(opt_.spines);
    for (std::size_t s = 0; s < opt_.spines; ++s) {
      for (std::size_t k = 0; k < opt_.trunks_per_spine; ++k) {
        link::LinkSpec spec;
        spec.rate_bps = link_rate(fault::FleetFault::Target::kTrunk, r, s, k,
                                  opt_.trunk_rate_bps);
        spec.propagation = opt_.trunk_propagation;
        spec.detail_metrics = true;
        const Testbed::TrunkPorts ports = tb_.connect_switches(
            *tors_[r], *spines_[s], spec, trunk_name(r, s, k));
        trunks_[r][s].push_back(ports.wire);
        tors_[r]->set_port_buffer(ports.port_a, opt_.tor_uplink_buffer_bytes);
        tor_uplinks[r].push_back(ports.port_a);
        spine_ports[r][s].push_back(ports.port_b);
      }
    }
  }

  // --- ECMP programming ------------------------------------------------------
  // ToR r: every remote host hashes over all of r's uplinks. Spine s: rack
  // r's hosts hash over the (r, s) bundle. Program in rack/host order so the
  // tables are built identically every run.
  for (std::size_t r = 0; r < opt_.racks; ++r) {
    for (std::size_t rr = 0; rr < opt_.racks; ++rr) {
      if (rr == r) continue;
      for (Host* remote : hosts_[rr]) {
        tors_[r]->learn_group(remote->node(), tor_uplinks[r]);
      }
    }
  }
  for (std::size_t s = 0; s < opt_.spines; ++s) {
    for (std::size_t r = 0; r < opt_.racks; ++r) {
      for (Host* h : hosts_[r]) {
        spines_[s]->learn_group(h->node(), spine_ports[r][s]);
      }
    }
  }

  // --- Fault installation -----------------------------------------------------
  // Seeds decorrelate per entry from the plan seed only (never from shard
  // placement): the fault schedule is part of the workload.
  for (std::size_t i = 0; i < opt_.faults.faults.size(); ++i) {
    const auto& f = opt_.faults.faults[i];
    const std::uint64_t entry_seed =
        opt_.faults.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    switch (f.target) {
      case fault::FleetFault::Target::kHostLink:
        if (f.wire.active()) {
          fault::FaultPlan plan = f.wire;
          plan.seed ^= entry_seed;
          host_link(f.rack, f.host).set_fault_plan(plan);
        }
        break;
      case fault::FleetFault::Target::kTrunk:
        if (f.wire.active()) {
          fault::FaultPlan plan = f.wire;
          plan.seed ^= entry_seed;
          trunk(f.rack, f.spine, f.trunk).set_fault_plan(plan);
        }
        break;
      case fault::FleetFault::Target::kHost: {
        fault::HostFaultPlan plan = f.host_plan;
        plan.seed ^= entry_seed;
        host(f.rack, f.host).set_host_fault_plan(plan);
        break;
      }
    }
  }
}

double Fabric::oversubscription() const {
  const double in = static_cast<double>(opt_.hosts_per_rack) *
                    opt_.host_rate_bps;
  const double out = static_cast<double>(opt_.spines) *
                     static_cast<double>(opt_.trunks_per_spine) *
                     opt_.trunk_rate_bps;
  return out > 0.0 ? in / out : 0.0;
}

std::string Fabric::fault_component(const fault::FleetFault& f) const {
  switch (f.target) {
    case fault::FleetFault::Target::kHostLink:
      return host_name(f.rack, f.host) + "-tor" + std::to_string(f.rack);
    case fault::FleetFault::Target::kTrunk:
      return trunk_name(f.rack, f.spine, f.trunk);
    case fault::FleetFault::Target::kHost:
      return host_name(f.rack, f.host);
  }
  return {};
}

std::uint64_t Fabric::fingerprint() const {
  obs::Registry reg;
  register_metrics(reg);
  const std::string json = reg.snapshot().to_json();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char ch : json) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace xgbe::core
