// Event-core microbenchmark: schedule/fire/cancel mixes on the indexed-heap
// EventQueue, reported as events/sec (items_per_second in the output).
//
// Each workload also runs against `SeedQueue`, a faithful replica of the
// seed tree's implementation (std::priority_queue + lazy cancellation via a
// re-sorted vector, std::function callbacks), so the speedup is tracked in
// the bench trajectory. The headline workload is TimerChurn, modeled on the
// TCP endpoint's pattern: almost every scheduled retransmit timer is
// cancelled and re-armed before it fires, which is exactly where the seed's
// sort-per-cancel went quadratic.
// The multi-host scaling mode (SimCore_Cluster) measures the sharded
// parallel engine on the canonical pair cluster: whole-simulation events/sec
// at 1..512 hosts for shard counts {1, 2, 8}, plus the deterministic
// counters (event/window/exchange totals and a metrics fingerprint) the
// golden baseline gates on. Wall-clock rates depend on the machine and are
// never gated; `cores`/`threads` are recorded so a reader can judge the
// speedup column (a 1-core container cannot show one).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace {

using xgbe::sim::SimTime;

// --- Seed-tree EventQueue replica (the "before" measurement) ---------------

class SeedQueue {
 public:
  using Callback = std::function<void()>;
  struct Id {
    std::uint64_t seq = 0;
  };

  Id schedule(SimTime at, Callback cb) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{at, seq, std::move(cb)});
    ++live_;
    return Id{seq};
  }

  void cancel(Id id) {
    if (id.seq == 0 || id.seq >= next_seq_) return;
    if (std::binary_search(cancelled_.begin(), cancelled_.end(), id.seq)) {
      return;
    }
    cancelled_.push_back(id.seq);
    std::sort(cancelled_.begin(), cancelled_.end());
    if (live_ > 0) --live_;
  }

  bool empty() const { return live_ == 0; }

  struct Fired {
    SimTime time;
    Callback cb;
  };
  Fired pop() {
    drop_cancelled();
    auto& top = const_cast<Entry&>(heap_.top());
    Fired fired{top.time, std::move(top.cb)};
    heap_.pop();
    --live_;
    return fired;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty()) {
      auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(),
                                 heap_.top().seq);
      if (it == cancelled_.end() || *it != heap_.top().seq) break;
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<std::uint64_t> cancelled_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

// --- Workloads (templated over the queue implementation) -------------------

// Pure schedule+fire: random arrival times, no cancellation.
template <typename Q>
std::uint64_t schedule_fire(int n) {
  Q q;
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
template <typename Q>
std::uint64_t timer_churn(int steps) {
  Q q;
  xgbe::sim::Rng rng(42);
  SimTime now = 0;
  std::uint64_t fired = 0;
  auto tick = [&fired] { ++fired; };
  decltype(q.schedule(0, tick)) rto{};
  bool armed = false;
  for (int i = 0; i < steps; ++i) {
    q.schedule(now + 1000 + static_cast<SimTime>(rng.next_below(500)), tick);
    if (armed) q.cancel(rto);
    rto = q.schedule(now + xgbe::sim::usec(200), tick);
    armed = true;
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
template <typename Q>
std::uint64_t mixed(int ops) {
  Q q;
  xgbe::sim::Rng rng(1234);
  SimTime now = 0;
  std::uint64_t fired = 0;
  auto tick = [&fired] { ++fired; };
  std::vector<decltype(q.schedule(0, tick))> live;
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

void SimCore_ScheduleFire_Indexed(benchmark::State& s) {
  run<&schedule_fire<xgbe::sim::EventQueue>>(s);
}
void SimCore_ScheduleFire_Seed(benchmark::State& s) {
  run<&schedule_fire<SeedQueue>>(s);
}
void SimCore_TimerChurn_Indexed(benchmark::State& s) {
  run<&timer_churn<xgbe::sim::EventQueue>>(s);
}
void SimCore_TimerChurn_Seed(benchmark::State& s) {
  run<&timer_churn<SeedQueue>>(s);
}
void SimCore_Mixed_Indexed(benchmark::State& s) {
  run<&mixed<xgbe::sim::EventQueue>>(s);
}
void SimCore_Mixed_Seed(benchmark::State& s) {
  run<&mixed<SeedQueue>>(s);
}

// --- Multi-host scaling on the sharded parallel engine ---------------------

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
  unsigned threads = 0;
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
    threads = engine.threads();
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
  state.counters["threads"] = static_cast<double>(threads);
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

BENCHMARK(SimCore_ScheduleFire_Indexed)->Arg(1 << 16);
BENCHMARK(SimCore_ScheduleFire_Seed)->Arg(1 << 16);
BENCHMARK(SimCore_TimerChurn_Indexed)->Arg(1 << 14);
BENCHMARK(SimCore_TimerChurn_Seed)->Arg(1 << 14);
BENCHMARK(SimCore_Mixed_Indexed)->Arg(1 << 16);
BENCHMARK(SimCore_Mixed_Seed)->Arg(1 << 16);
BENCHMARK(SimCore_Cluster)
    ->ArgsProduct({{1, 8, 64, 512}, {1, 2, 8}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

XGBE_BENCH_MAIN();
