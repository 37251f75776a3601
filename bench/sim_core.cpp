// Event-core microbenchmark: schedule/fire/cancel mixes on the indexed-heap
// EventQueue, reported as events/sec (items_per_second in the output).
//
// The headline workload is TimerChurn, modeled on the TCP endpoint's
// pattern: almost every scheduled retransmit timer is cancelled and re-armed
// before it fires. Hold is the classic priority-queue hold model (fire one
// event, schedule one a drawn increment later) at a fixed depth: 32 pending
// keys, the depth real workloads keep, and 4096.
// The multi-host scaling mode (SimCore_Cluster) measures the sharded
// engine on the canonical pair cluster: whole-simulation events/sec at
// 1..512 hosts for shard counts {1, 2, 8}, plus the deterministic counters
// (event/window/exchange totals and a metrics fingerprint) the golden
// baseline gates on. Wall-clock rates depend on the machine and are never
// gated. The engine runs every shard on one thread, so the speedup column
// is the serial benefit of sharding (smaller per-shard queues); `cores` is
// recorded so a reader can compare machines.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace {

using xgbe::sim::EventQueue;
using xgbe::sim::SimTime;

// --- Workloads --------------------------------------------------------------

// Pure schedule+fire: random arrival times, no cancellation.
std::uint64_t schedule_fire(int n) {
  EventQueue q;
  xgbe::sim::Rng rng(7);
  std::uint64_t fired = 0;
  auto tick = [&fired] { ++fired; };
  for (int i = 0; i < n; ++i) {
    q.schedule(static_cast<SimTime>(rng.next_below(1u << 20)), tick);
  }
  while (!q.empty()) {
    auto f = q.pop();
    if (f.cb) f.cb();
  }
  return fired;  // one schedule + one fire per event
}

// Timer churn, modeled on the TCP endpoint: each step delivers one imminent
// "segment" event, re-arms a far-future retransmit timer (cancelling the
// previous one — the timer almost never fires), and pops one event.
std::uint64_t timer_churn(int steps) {
  EventQueue q;
  xgbe::sim::Rng rng(42);
  SimTime now = 0;
  std::uint64_t fired = 0;
  auto tick = [&fired] { ++fired; };
  xgbe::sim::EventId rto{};
  for (int i = 0; i < steps; ++i) {
    q.schedule(now + 1000 + static_cast<SimTime>(rng.next_below(500)), tick);
    q.cancel(rto);
    rto = q.schedule(now + xgbe::sim::usec(200), tick);
    auto f = q.pop();
    now = f.time;
    if (f.cb) f.cb();
  }
  while (!q.empty()) {
    auto f = q.pop();
    if (f.cb) f.cb();
  }
  return fired;
}

// Mixed randomized schedule/cancel/pop traffic (the stress-test shape).
std::uint64_t mixed(int ops) {
  EventQueue q;
  xgbe::sim::Rng rng(1234);
  SimTime now = 0;
  std::uint64_t fired = 0;
  auto tick = [&fired] { ++fired; };
  std::vector<xgbe::sim::EventId> live;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55 || q.empty()) {
      live.push_back(
          q.schedule(now + 1 + static_cast<SimTime>(rng.next_below(10000)),
                     tick));
    } else if (roll < 80 && !live.empty()) {
      const std::size_t k = rng.next_below(live.size());
      q.cancel(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      auto f = q.pop();
      now = f.time;
      if (f.cb) f.cb();
    }
  }
  return fired;
}

// Hold model: `depth` keys stay pending while each of kHoldSteps steps
// fires the earliest and schedules one at its time plus a drawn increment.
constexpr int kHoldSteps = 1 << 18;

std::uint64_t hold(int depth) {
  EventQueue q;
  xgbe::sim::Rng rng(99);
  std::uint64_t fired = 0;
  auto tick = [&fired] { ++fired; };
  for (int i = 0; i < depth; ++i) {
    q.schedule(static_cast<SimTime>(rng.next_below(1u << 16)), tick);
  }
  for (int i = 0; i < kHoldSteps; ++i) {
    auto f = q.pop();
    if (f.cb) f.cb();
    q.schedule(f.time + 1 + static_cast<SimTime>(rng.next_below(1u << 16)),
               tick);
  }
  return fired;  // kHoldSteps: the `depth` keys left are never fired
}

template <std::uint64_t (*Work)(int)>
void run(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    fired = Work(n);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["fired"] = static_cast<double>(fired);
}

void SimCore_ScheduleFire(benchmark::State& s) { run<&schedule_fire>(s); }
void SimCore_TimerChurn(benchmark::State& s) { run<&timer_churn>(s); }
void SimCore_Mixed(benchmark::State& s) { run<&mixed>(s); }

// The argument is the depth, not the operation count: the rate is fired
// events per second.
void SimCore_Hold(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    fired = hold(depth);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kHoldSteps);
  state.counters["fired"] = static_cast<double>(fired);
}

// --- Multi-host scaling on the sharded engine ------------------------------

// Measured simulated window per cluster size, chosen so every point finishes
// in seconds of wall clock while still executing millions of events.
xgbe::sim::SimTime cluster_window(std::size_t hosts) {
  if (hosts >= 512) return xgbe::sim::msec(1);
  if (hosts >= 64) return xgbe::sim::msec(5);
  return xgbe::sim::msec(20);
}

void SimCore_Cluster(benchmark::State& state) {
  namespace cluster = xgbe::core::cluster;
  const auto hosts = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  cluster::Options opt;
  opt.hosts = hosts;
  opt.shards = shards;

  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t exchanged = 0;
  std::uint64_t fp = 0;
  double wall_s = 0.0;
  for (auto _ : state) {
    auto c = cluster::build(opt);
    const auto t0 = std::chrono::steady_clock::now();
    cluster::drive(*c, xgbe::sim::msec(1), cluster_window(hosts));
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    auto& engine = c->tb.engine();
    events = engine.executed_events();
    windows = engine.windows();
    exchanged = engine.exchanged();
    fp = cluster::fingerprint(*c);
  }
  state.SetItemsProcessed(state.iterations() * events);

  // Deterministic counters — gated against bench/golden/sim_core.json.
  state.counters["hosts"] = static_cast<double>(hosts);
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["events"] = static_cast<double>(events);
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["exchanged"] = static_cast<double>(exchanged);
  // A 64-bit hash does not round-trip through a double; halves do, exactly.
  state.counters["fingerprint_hi"] = static_cast<double>(fp >> 32);
  state.counters["fingerprint_lo"] = static_cast<double>(fp & 0xffffffffu);

  xgbe::bench::log_point(
      state,
      xgbe::bench::point_name(
          "SimCore_Cluster",
          {{"hosts", static_cast<std::int64_t>(hosts)},
           {"shards", static_cast<std::int64_t>(shards)}}));

  // Machine-dependent: printed on the console, kept out of the JSON log.
  const double rate = wall_s > 0.0 ? static_cast<double>(events) / wall_s
                                   : 0.0;
  state.counters["events_per_sec"] = rate;
  state.counters["wall_ms"] = wall_s * 1e3;
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
  static std::map<std::size_t, double> base_rate;  // shards=1 runs first
  if (shards == 1) base_rate[hosts] = rate;
  const auto base = base_rate.find(hosts);
  if (shards != 1 && base != base_rate.end() && base->second > 0.0) {
    state.counters["speedup_vs_1shard"] = rate / base->second;
  }
}

}  // namespace

BENCHMARK(SimCore_ScheduleFire)->Arg(1 << 16);
BENCHMARK(SimCore_TimerChurn)->Arg(1 << 14);
BENCHMARK(SimCore_Mixed)->Arg(1 << 16);
BENCHMARK(SimCore_Hold)->Arg(32)->Arg(4096);
BENCHMARK(SimCore_Cluster)
    ->ArgsProduct({{1, 8, 64, 512}, {1, 2, 8}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

XGBE_BENCH_MAIN();
