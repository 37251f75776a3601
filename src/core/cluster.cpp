#include "core/cluster.hpp"

#include <cstring>

#include "hw/presets.hpp"
#include "obs/registry.hpp"

namespace xgbe::core::cluster {

std::unique_ptr<Cluster> build(const Options& options) {
  auto c = std::make_unique<Cluster>(options.shards);
  // 0 keeps the engine's default resolution (env override, then hardware
  // concurrency); set_threads(0) would instead force the serial path.
  if (options.threads != 0) c->tb.engine().set_threads(options.threads);
  const auto system = hw::presets::pe2650();
  const auto tuning = TuningProfile::with_big_windows(options.mtu);

  if (options.hosts <= 1) {
    // Single host: a self-rescheduling timer chain stands in for traffic
    // (the endpoint map is flow-keyed, so a host cannot stream to itself).
    // No links means Testbed never computes a lookahead; the chain period
    // is a safe stand-in (one shard holds all events anyway).
    c->tb.add_host_on(0, "solo", system, tuning);
    c->tb.engine().set_lookahead(options.propagation);
    auto tick = std::make_shared<std::function<void()>>();
    sim::Simulator& s0 = c->tb.shard_simulator(0);
    std::weak_ptr<std::function<void()>> weak = tick;
    *tick = [&s0, weak]() {
      s0.schedule(sim::nsec(100), [weak]() {
        if (auto t = weak.lock()) (*t)();
      });
    };
    (*tick)();
    c->writers.push_back(std::move(tick));
    return c;
  }

  const std::size_t npairs = options.hosts / 2;
  link::LinkSpec wire;
  wire.propagation = options.propagation;
  for (std::size_t i = 0; i < npairs; ++i) {
    // Contiguous partition, both ends of a pair together: all traffic is
    // intra-shard, so shards only meet at the window barrier — the
    // embarrassingly-parallel best case the scaling bench wants to measure.
    const std::size_t shard = i * options.shards / npairs;
    auto& tx = c->tb.add_host_on(shard, "tx" + std::to_string(i), system,
                                 tuning);
    auto& rx = c->tb.add_host_on(shard, "rx" + std::to_string(i), system,
                                 tuning);
    link::Link& l = c->tb.connect(tx, rx, wire);
    if (options.link_fault.active()) {
      fault::FaultPlan plan = options.link_fault;
      plan.seed ^= 0x9e3779b97f4a7c15ULL * (i + 1);  // decorrelate per pair
      l.set_fault_plan(plan);
    }
    c->conns.push_back(c->tb.open_connection(tx, rx, tx.endpoint_config(),
                                             rx.endpoint_config()));
  }
  return c;
}

void drive(Cluster& cluster, sim::SimTime warmup, sim::SimTime window) {
  for (auto& conn : cluster.conns) {
    cluster.tb.run_until_established(conn);
  }
  // One counter per pair: each is written only by its server's shard.
  // Sized once before arming so the element addresses stay stable.
  cluster.pair_consumed.assign(cluster.conns.size(), 0);
  for (std::size_t i = 0; i < cluster.conns.size(); ++i) {
    auto& conn = cluster.conns[i];
    auto* consumed = &cluster.pair_consumed[i];
    conn.server->on_consumed = [consumed](std::uint64_t b) { *consumed += b; };
    // Weak self-capture, as in bench drive_flows_gbps: a strong capture
    // would make the std::function own itself and leak.
    auto writer = std::make_shared<std::function<void()>>();
    auto* client = conn.client;
    std::weak_ptr<std::function<void()>> weak = writer;
    *writer = [weak, client]() {
      client->app_send(65536, [weak]() {
        if (auto w = weak.lock()) (*w)();
      });
    };
    (*writer)();
    cluster.writers.push_back(std::move(writer));
  }
  cluster.tb.run_for(warmup + window);
  for (auto& conn : cluster.conns) conn.server->on_consumed = nullptr;
  cluster.consumed = 0;
  for (const std::uint64_t b : cluster.pair_consumed) cluster.consumed += b;
}

std::uint64_t fingerprint(Cluster& cluster) {
  obs::Registry reg;
  cluster.tb.register_metrics(reg);
  const std::string json = reg.snapshot().to_json();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char ch : json) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace xgbe::core::cluster
