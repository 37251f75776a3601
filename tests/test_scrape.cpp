// Time-resolved telemetry suite: obs::MetricScraper + TimeSeriesStore +
// obs::detect, armed through core::Testbed's sim::TimeHook seam.
//
// The contract under test:
//  - arming a scraper perturbs NOTHING: an armed run is bit-identical to an
//    unarmed one — executed-event counts included — in classic mode and
//    under ShardedEngine at shard counts {1,2,4} and several thread counts;
//  - the scraped series themselves are deterministic: identical across
//    reruns, shard counts, and thread counts (store fingerprint equality);
//  - the ring bound evicts oldest-first by folding deltas into the base, so
//    the retained tail decodes exactly and eviction is deterministic;
//  - the detectors pin a seeded flapping trunk's carrier-flap episodes
//    inside the fault plan's flap window;
//  - the fleet doctor's timeline mode stamps findings with onset/clear and
//    classifies the flap as transient, byte-identical across partitions;
//  - scraping survives listener churn: a Registry armed before a re-listen
//    keeps sampling the retired listener's counters (the Host::listen()
//    retire rule — a use-after-free regression test under ASan);
//  - the scraper's compiled plan produces the store a full registry
//    snapshot per boundary produces, across mid-run registrations, and
//    never invokes a probe outside its prefixes;
//  - an unfiltered scrape of the default fabric and the doctor's timeline
//    verdict stay at constants pinned before the plan existed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/churn.hpp"
#include "core/fabric.hpp"
#include "core/fleet.hpp"
#include "core/testbed.hpp"
#include "obs/detect.hpp"
#include "obs/registry.hpp"
#include "obs/scrape.hpp"
#include "tools/drop_report.hpp"
#include "tools/fleet_doctor.hpp"

namespace xgbe {
namespace {

namespace fleet = core::fleet;

using obs::MetricScraper;
using obs::ScrapeOptions;
using obs::SeriesPoint;
using obs::TimeSeriesStore;

// ---------------------------------------------------------------------------
// TimeSeriesStore

TEST(TimeSeriesStore, RingEvictionFoldsOldestIntoBase) {
  TimeSeriesStore store(4);
  // Non-uniform steps so a decode bug (base not folded, prefix sums off)
  // cannot cancel out.
  const std::int64_t values[] = {3, 7, 7, 20, 19, 100, 101, 150};
  for (int i = 0; i < 8; ++i) {
    store.append("s", sim::usec(10 * (i + 1)), values[i]);
  }
  EXPECT_EQ(store.series_count(), 1u);
  EXPECT_EQ(store.total_points(), 4u);
  EXPECT_EQ(store.evicted("s"), 4u);

  const std::vector<SeriesPoint> pts = store.points("s");
  ASSERT_EQ(pts.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pts[i].at, sim::usec(10 * (i + 5))) << i;
    EXPECT_EQ(pts[i].value, values[i + 4]) << i;
  }
}

TEST(TimeSeriesStore, SinglePointRingKeepsNewest) {
  TimeSeriesStore store(1);
  store.append("s", sim::usec(1), 5);
  store.append("s", sim::usec(2), 9);
  store.append("s", sim::usec(3), 4);
  EXPECT_EQ(store.total_points(), 1u);
  EXPECT_EQ(store.evicted("s"), 2u);
  const std::vector<SeriesPoint> pts = store.points("s");
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].at, sim::usec(3));
  EXPECT_EQ(pts[0].value, 4);
}

TEST(TimeSeriesStore, ExportsAreDeterministic) {
  auto build = []() {
    TimeSeriesStore store(8);
    store.append("b/gauge", sim::usec(1), 250, "milli");
    store.append("a/counter", sim::usec(1), 0);
    store.append("a/counter", sim::usec(2), 3);
    store.append("b/gauge", sim::usec(2), 125, "milli");
    return store;
  };
  const TimeSeriesStore one = build();
  const TimeSeriesStore two = build();
  EXPECT_EQ(one.to_csv(), two.to_csv());
  EXPECT_EQ(one.to_jsonl(), two.to_jsonl());
  EXPECT_EQ(one.series_json(), two.series_json());
  EXPECT_EQ(one.fingerprint(), two.fingerprint());

  // Exports iterate the map: path order, "a/counter" first.
  EXPECT_EQ(one.to_csv().rfind("series,unit,at_ps,value\n", 0), 0u)
      << one.to_csv();
  EXPECT_LT(one.to_csv().find("a/counter"), one.to_csv().find("b/gauge"));
  EXPECT_EQ(one.unit("b/gauge"), "milli");
}

// ---------------------------------------------------------------------------
// Detector semantics on synthetic series

std::vector<SeriesPoint> synth(std::initializer_list<std::int64_t> values) {
  std::vector<SeriesPoint> pts;
  sim::SimTime at = 0;
  for (const std::int64_t v : values) {
    at += sim::msec(1);
    pts.push_back({at, v});
  }
  return pts;
}

TEST(Detect, IncreaseOpensOnDeltaAndClearsAfterQuietIntervals) {
  // Deltas: +2 at 2ms, quiet 3-4ms (clears at 3ms), +1 at 6ms, never quiet
  // long enough again -> second episode uncleared.
  const auto pts = synth({0, 2, 2, 2, 2, 3, 3});
  const auto eps = obs::detect::detect_increase(pts, "s", "carrier-flap");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].onset, sim::msec(2));
  EXPECT_TRUE(eps[0].cleared);
  EXPECT_EQ(eps[0].clear, sim::msec(3));
  EXPECT_EQ(eps[0].severity, 2);
  EXPECT_EQ(eps[1].onset, sim::msec(6));
  EXPECT_FALSE(eps[1].cleared);
}

TEST(Detect, ThresholdTracksPeakSeverity) {
  const auto pts = synth({10, 90, 100, 40, 95, 10});
  const auto eps = obs::detect::detect_threshold(pts, "q", "queue-saturation",
                                                 /*threshold=*/80);
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].onset, sim::msec(2));
  EXPECT_EQ(eps[0].clear, sim::msec(4));
  EXPECT_EQ(eps[0].severity, 100);
  EXPECT_EQ(eps[1].onset, sim::msec(5));
  EXPECT_EQ(eps[1].severity, 95);
}

// ---------------------------------------------------------------------------
// Armed == unarmed, classic mode

struct ClassicOutcome {
  std::uint64_t executed = 0;
  std::string registry_json;
  std::string ledger;
  // Armed runs only:
  std::uint64_t scrapes = 0;
  std::size_t scrape_series = 0;
  std::uint64_t scrape_points = 0;
  std::uint64_t scrape_fp = 0;
};

ClassicOutcome run_classic(bool armed) {
  core::Testbed tb;  // classic: single event queue, between-event hook
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& client = tb.add_host("client", hw::presets::pe2650(), tuning);
  auto& server = tb.add_host("server", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(client, server);

  obs::Registry scrape_reg;
  std::unique_ptr<MetricScraper> scraper;
  if (armed) {
    tb.register_metrics(scrape_reg);
    ScrapeOptions so;
    so.period = sim::usec(100);
    scraper = std::make_unique<MetricScraper>(scrape_reg, so);
    tb.set_metric_scraper(scraper.get());
  }

  auto conn = tb.open_connection(client, server, client.endpoint_config(),
                                 server.endpoint_config());
  EXPECT_TRUE(tb.run_until_established(conn));
  conn.client->app_send(512 * 1024, nullptr);
  tb.run_for(sim::msec(20));
  tb.set_metric_scraper(nullptr);

  ClassicOutcome out;
  out.executed = tb.simulator().executed_events();
  obs::Registry reg;
  tb.register_metrics(reg);
  out.registry_json = reg.snapshot().to_json();
  tools::DropReport ledger;
  ledger.add_host(client);
  ledger.add_host(server);
  ledger.add_link(wire);
  out.ledger = ledger.render();
  if (scraper != nullptr) {
    out.scrapes = scraper->scrapes();
    out.scrape_series = scraper->store().series_count();
    out.scrape_points = scraper->store().total_points();
    out.scrape_fp = scraper->store().fingerprint();
  }
  return out;
}

TEST(MetricScraper, ArmedClassicRunIsBitIdenticalToUnarmed) {
  const ClassicOutcome unarmed = run_classic(false);
  const ClassicOutcome armed = run_classic(true);

  EXPECT_EQ(armed.executed, unarmed.executed)
      << "arming the scraper changed the event schedule";
  EXPECT_EQ(armed.registry_json, unarmed.registry_json);
  EXPECT_EQ(armed.ledger, unarmed.ledger);

  // And the scraper actually sampled: a 20 ms run at 100 us cadence.
  EXPECT_GE(armed.scrapes, 100u);
  EXPECT_GT(armed.scrape_series, 0u);
  EXPECT_GT(armed.scrape_points, 0u);
}

TEST(MetricScraper, ClassicScrapeIsRerunDeterministic) {
  const ClassicOutcome one = run_classic(true);
  const ClassicOutcome two = run_classic(true);
  EXPECT_EQ(one.scrape_fp, two.scrape_fp);
  EXPECT_EQ(one.scrape_points, two.scrape_points);
  EXPECT_GT(one.scrape_points, 0u);
}

// ---------------------------------------------------------------------------
// Armed == unarmed under ShardedEngine, any partition

core::FabricOptions incast_fabric(std::size_t shards, unsigned threads) {
  core::FabricOptions o;
  o.racks = 2;
  o.hosts_per_rack = 3;
  o.spines = 1;
  o.trunks_per_spine = 2;
  o.shards = shards;
  o.threads = threads;
  o.tor_port_buffer_bytes = 48 * 1024;  // overdriven: drops to scrape
  o.host_propagation = sim::usec(10);
  o.trunk_propagation = sim::usec(20);
  return o;
}

struct FleetOutcome {
  std::uint64_t executed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t bytes = 0;
  bool completed = false;
  std::uint64_t scrape_fp = 0;
  std::uint64_t scrape_points = 0;
};

FleetOutcome run_incast(std::size_t shards, unsigned threads, bool armed) {
  core::Fabric fabric(incast_fabric(shards, threads));
  fleet::Options opt;
  opt.scenario = fleet::Scenario::kIncast;
  opt.incast_bytes = 64 * 1024;
  opt.incast_rounds = 6;

  obs::Registry reg;
  std::unique_ptr<MetricScraper> scraper;
  if (armed) {
    fabric.register_metrics(reg);
    ScrapeOptions so;
    so.period = sim::usec(100);
    scraper = std::make_unique<MetricScraper>(reg, so);
    opt.scraper = scraper.get();
  }
  const fleet::Result res = fleet::run(fabric, opt);

  FleetOutcome out;
  out.executed = fabric.testbed().engine().executed_events();
  out.fingerprint = fabric.fingerprint();
  out.bytes = res.bytes_consumed;
  out.completed = res.completed;
  if (scraper != nullptr) {
    out.scrape_fp = scraper->store().fingerprint();
    out.scrape_points = scraper->store().total_points();
  }
  return out;
}

TEST(MetricScraper, ArmedShardedRunIsBitIdenticalToUnarmed) {
  // The tentpole invariant: for every partition, arming changes nothing —
  // executed-event count included — and the scrape itself is identical
  // across all partitions (barriers are partition-invariant).
  std::uint64_t base_scrape_fp = 0;
  std::uint64_t base_fabric_fp = 0;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const unsigned threads : {1u, 4u}) {
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      const FleetOutcome unarmed = run_incast(shards, threads, false);
      const FleetOutcome armed = run_incast(shards, threads, true);
      EXPECT_EQ(armed.executed, unarmed.executed) << label;
      EXPECT_EQ(armed.fingerprint, unarmed.fingerprint) << label;
      EXPECT_EQ(armed.bytes, unarmed.bytes) << label;
      EXPECT_EQ(armed.completed, unarmed.completed) << label;
      EXPECT_GT(armed.scrape_points, 0u) << label;
      if (first) {
        first = false;
        base_scrape_fp = armed.scrape_fp;
        base_fabric_fp = armed.fingerprint;
      } else {
        EXPECT_EQ(armed.scrape_fp, base_scrape_fp) << label;
        EXPECT_EQ(armed.fingerprint, base_fabric_fp) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The compiled scrape plan against a full recomputation

TEST(MetricScraper, SelectionNeverInvokesNonMatchingProbes) {
  obs::Registry reg;
  int live_reads = 0;
  int dead_reads = 0;
  reg.counter("live/a", [&live_reads] {
    return static_cast<std::uint64_t>(++live_reads);
  });
  reg.gauge("dead/b", [&dead_reads] {
    ++dead_reads;
    return 0.0;
  });
  reg.distribution("dead/c", [&dead_reads] {
    ++dead_reads;
    return sim::OnlineStats{};
  });
  EXPECT_EQ(reg.generation(), 3u);
  reg.counter("live/a", [&live_reads] {
    return static_cast<std::uint64_t>(++live_reads);
  });
  EXPECT_EQ(reg.generation(), 4u) << "re-registration must count";

  const std::vector<obs::Registry::Entry> selected = reg.select({"live/"});
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(*selected[0].path, "live/a");
  EXPECT_EQ(selected[0].probe->kind, obs::Kind::kCounter);
  EXPECT_EQ(live_reads + dead_reads, 0) << "select() must invoke no probe";

  ScrapeOptions so;
  so.prefixes = {"live/"};
  MetricScraper scraper(reg, so);
  scraper.advance(scraper.due());
  scraper.advance(scraper.due());
  EXPECT_EQ(live_reads, 2);
  EXPECT_EQ(dead_reads, 0);
  EXPECT_EQ(scraper.store().series_names(), std::vector<std::string>{"live/a"});
}

/// Scrapes without a plan: a full Registry::snapshot() at every boundary,
/// filtered by prefix and appended by path.
class ReferenceScraper {
 public:
  ReferenceScraper(const obs::Registry& registry,
                   std::vector<std::string> prefixes, std::size_t max_points)
      : registry_(registry), prefixes_(std::move(prefixes)),
        store_(max_points) {}

  bool selects(const std::string& path) const {
    if (prefixes_.empty()) return true;
    for (const std::string& prefix : prefixes_) {
      if (path.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  void advance(sim::SimTime at) {
    for (const obs::Sample& s : registry_.snapshot().samples) {
      if (!selects(s.path)) continue;
      if (s.kind == obs::Kind::kGauge) {
        store_.append(s.path, at, std::llround(s.value * 1000.0), "milli");
      } else {
        store_.append(s.path, at, static_cast<std::int64_t>(s.count),
                      "count");
      }
    }
  }

  const TimeSeriesStore& store() const { return store_; }

 private:
  const obs::Registry& registry_;
  std::vector<std::string> prefixes_;
  TimeSeriesStore store_;
};

/// Advances a MetricScraper and the reference at the same boundaries and
/// changes the registry between boundaries: before the 3rd it registers a
/// probe under "switch/" and one outside every prefix set; before the 6th it
/// re-registers the first selected path with a closure of another kind.
class LockstepHook final : public sim::TimeHook {
 public:
  LockstepHook(obs::Registry& registry, MetricScraper& scraper,
               ReferenceScraper& reference)
      : registry_(registry), scraper_(scraper), reference_(reference) {}

  sim::SimTime due() const override { return scraper_.due(); }

  void advance(sim::SimTime at) override {
    ++boundaries_;
    if (boundaries_ == 3) {
      registry_.counter("switch/zz-late/boundaries",
                        [this] { return boundaries_; });
      registry_.gauge("zz-unselected/late", [this] {
        return 0.25 * static_cast<double>(boundaries_);
      });
    }
    if (boundaries_ == 6) {
      for (const obs::Sample& s : registry_.snapshot().samples) {
        if (!reference_.selects(s.path)) continue;
        if (s.kind == obs::Kind::kGauge) {
          registry_.counter(s.path, [this] { return 1000 + boundaries_; });
        } else {
          registry_.gauge(s.path, [this] {
            return 1.5 * static_cast<double>(boundaries_);
          });
        }
        replaced_ = s.path;
        break;
      }
    }
    scraper_.advance(at);
    reference_.advance(at);
  }

  const std::string& replaced() const { return replaced_; }

 private:
  obs::Registry& registry_;
  MetricScraper& scraper_;
  ReferenceScraper& reference_;
  std::uint64_t boundaries_ = 0;
  std::string replaced_;
};

void expect_same_store(const TimeSeriesStore& got,
                       const TimeSeriesStore& want, const std::string& label) {
  ASSERT_EQ(got.series_names(), want.series_names()) << label;
  EXPECT_GT(want.total_points(), 0u) << label;
  EXPECT_TRUE(got.to_csv() == want.to_csv()) << label;
  EXPECT_TRUE(got.series_json() == want.series_json()) << label;
  for (const std::string& name : want.series_names()) {
    EXPECT_EQ(got.evicted(name), want.evicted(name)) << label << " " << name;
  }
}

struct PlanCase {
  std::vector<std::string> prefixes;
  std::size_t max_points = 0;
  std::string label;
};

std::vector<PlanCase> plan_cases(const std::string& testbed) {
  std::vector<PlanCase> cases;
  const std::vector<std::vector<std::string>> prefix_sets = {
      {}, {"link/trunk-", "switch/"}};
  for (const auto& prefixes : prefix_sets) {
    const std::string filter = prefixes.empty() ? " unfiltered" : " filtered";
    for (const std::size_t max_points : {1u, 4u, 4096u}) {
      cases.push_back({prefixes, max_points,
                       testbed + filter +
                           " max_points=" + std::to_string(max_points)});
    }
  }
  return cases;
}

TEST(MetricScraper, PlanMatchesPerBoundarySnapshotOnClassicTestbed) {
  for (const PlanCase& c : plan_cases("classic")) {
    core::Testbed tb;
    const auto tuning = core::TuningProfile::lan_tuned(9000);
    auto& client = tb.add_host("client", hw::presets::pe2650(), tuning);
    auto& server = tb.add_host("server", hw::presets::pe2650(), tuning);
    tb.connect(client, server);

    obs::Registry reg;
    tb.register_metrics(reg);
    ScrapeOptions so;
    so.period = sim::usec(100);
    so.max_points = c.max_points;
    so.prefixes = c.prefixes;
    MetricScraper scraper(reg, so);
    ReferenceScraper reference(reg, c.prefixes, c.max_points);
    LockstepHook hook(reg, scraper, reference);
    tb.simulator().set_time_hook(&hook);

    auto conn = tb.open_connection(client, server, client.endpoint_config(),
                                   server.endpoint_config());
    ASSERT_TRUE(tb.run_until_established(conn)) << c.label;
    conn.client->app_send(512 * 1024, nullptr);
    tb.run_for(sim::msec(20));
    tb.simulator().set_time_hook(nullptr);

    EXPECT_FALSE(hook.replaced().empty()) << c.label;
    EXPECT_GE(scraper.scrapes(), 100u) << c.label;
    expect_same_store(scraper.store(), reference.store(), c.label);
  }
}

TEST(MetricScraper, PlanMatchesPerBoundarySnapshotOnShardedIncast) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const PlanCase& c : plan_cases("shards=" + std::to_string(shards))) {
      core::Fabric fabric(incast_fabric(shards, /*threads=*/1));
      obs::Registry reg;
      fabric.register_metrics(reg);
      ScrapeOptions so;
      so.period = sim::msec(1);  // ~280 boundaries over the 0.28 s run
      so.max_points = c.max_points;
      so.prefixes = c.prefixes;
      MetricScraper scraper(reg, so);
      ReferenceScraper reference(reg, c.prefixes, c.max_points);
      LockstepHook hook(reg, scraper, reference);
      fabric.testbed().engine().set_time_hook(&hook);

      fleet::Options opt;
      opt.scenario = fleet::Scenario::kIncast;
      opt.incast_bytes = 64 * 1024;
      opt.incast_rounds = 6;
      fleet::run(fabric, opt);
      fabric.testbed().engine().set_time_hook(nullptr);

      EXPECT_FALSE(hook.replaced().empty()) << c.label;
      EXPECT_GE(scraper.scrapes(), 100u) << c.label;
      expect_same_store(scraper.store(), reference.store(), c.label);
    }
  }
}

// ---------------------------------------------------------------------------
// Detector pinning: seeded flapping trunks

TEST(Detect, FlappingTrunkEpisodesPinnedToFaultWindow) {
  // Both trunks of the rack-1 bundle flap on the default schedule: down
  // windows [5,6) [15,16) [25,26) [35,36) ms. Cross-rack streams run the
  // whole span (sends every 1 ms), so every down window sees traffic — the
  // flap counter increments lazily, on the first frame a down carrier
  // drops. At a 1 ms scrape cadence the first flap lands on the 6 ms
  // boundary and every carrier-flap onset stays inside [5, 37] ms.
  core::FabricOptions fopt = incast_fabric(/*shards=*/2, /*threads=*/0);
  fopt.faults.flapping_trunk(/*rack=*/1, /*spine=*/0, /*trunk=*/0);
  fopt.faults.flapping_trunk(/*rack=*/1, /*spine=*/0, /*trunk=*/1);
  core::Fabric fabric(fopt);
  core::Testbed& tb = fabric.testbed();

  obs::Registry reg;
  fabric.register_metrics(reg);
  ScrapeOptions so;
  so.period = sim::msec(1);
  so.prefixes = {"link/trunk-"};
  MetricScraper scraper(reg, so);
  tb.set_metric_scraper(&scraper);

  // 9 cross-rack flows (every rack-1 host to every rack-0 host), each
  // sending 24 KiB every 1 ms for 40 ms — continuous trunk traffic.
  std::vector<core::Testbed::Connection> flows;
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t d = 0; d < 3; ++d) {
      core::Host& src = fabric.host(1, s);
      core::Host& dst = fabric.host(0, d);
      flows.push_back(tb.open_connection(src, dst, src.endpoint_config(),
                                         dst.endpoint_config()));
    }
  }
  for (auto& f : flows) tb.run_until_established(f);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    tcp::Endpoint* ep = flows[i].client;
    core::Host& src = fabric.host(1, i / 3);
    for (int k = 0; k < 40; ++k) {
      tb.simulator_for(src).schedule(
          sim::msec(k), [ep]() { ep->app_send(24 * 1024, nullptr); });
    }
  }
  tb.run_until(sim::msec(45));
  tb.set_metric_scraper(nullptr);

  const auto episodes = obs::detect::run_detectors(scraper.store());
  std::vector<obs::detect::Episode> flaps;
  for (const auto& e : episodes) {
    if (e.cause == "carrier-flap") flaps.push_back(e);
  }
  ASSERT_FALSE(flaps.empty()) << obs::detect::episodes_json(episodes);
  sim::SimTime first_onset = flaps.front().onset;
  for (const auto& e : flaps) {
    EXPECT_GE(e.onset, sim::msec(5)) << e.series;
    EXPECT_LE(e.onset, sim::msec(37)) << e.series;
    if (e.onset < first_onset) first_onset = e.onset;
  }
  // The first down window is [5, 6) ms; with traffic in it, the first
  // scrape boundary that can see the flap is 6 ms, and 7 ms at the latest.
  EXPECT_GE(first_onset, sim::msec(5));
  EXPECT_LE(first_onset, sim::msec(7))
      << obs::detect::episodes_json(flaps);
}

// ---------------------------------------------------------------------------
// Fleet doctor timeline mode

TEST(FleetDoctorTimeline, FlapFindingCarriesOnsetAndTransient) {
  // Timeline mode pins the *when*: the carrier-flap finding must carry an
  // onset inside the plan's flap window [5, 37] ms and classify the flap as
  // transient (it cleared and recurred). The /2 verdict JSON must be
  // byte-identical across reruns, shard counts, and thread counts.
  fleet::Options incast;
  incast.scenario = fleet::Scenario::kIncast;
  // Rounds every 2.5 ms: rounds 2, 6, 10, 14 fire at ~5, 15, 25, 35 ms —
  // inside the plan's 1 ms down windows, so the lazily-counted flaps see
  // traffic in every window. 16 rounds span the whole [0, 37.5] ms plan.
  incast.round_period = sim::usec(2500);
  incast.incast_rounds = 16;

  std::string base_json;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const unsigned threads : {1u, 4u}) {
      tools::FleetDoctorOptions opt;
      opt.fabric = incast_fabric(shards, threads);
      opt.fabric.faults.flapping_trunk(1, 0, 0);
      opt.fabric.faults.flapping_trunk(1, 0, 1);
      opt.scenarios = {incast};
      opt.scrape_period = sim::msec(1);
      const tools::FleetDoctorReport rep = tools::run_fleet_doctor(opt);
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);

      ASSERT_FALSE(rep.verdict.clean()) << label << "\n" << rep.transcript();
      const tools::Finding* flap = nullptr;
      for (const auto& f : rep.verdict.findings) {
        if (f.cause == "carrier-flap") {
          flap = &f;
          break;
        }
      }
      ASSERT_NE(flap, nullptr) << label << "\n" << rep.verdict.render();
      EXPECT_TRUE(flap->timed) << label;
      EXPECT_GE(flap->onset, sim::msec(5)) << label;
      EXPECT_LE(flap->onset, sim::msec(37)) << label;
      EXPECT_TRUE(flap->transient)
          << label << "\n" << rep.verdict.render();
      EXPECT_GT(flap->episodes, 1u) << label;

      const std::string json = rep.verdict.to_json();
      EXPECT_NE(json.find("\"schema\":\"xgbe-fleet-doctor/2\""),
                std::string::npos)
          << json;
      if (first) {
        first = false;
        base_json = json;
      } else {
        EXPECT_EQ(json, base_json) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Unfiltered scrape of the default fabric, pinned
//
// fleet_incast's golden samples "switch/" alone. These constants lock the
// host, link and adapter series the doctor scrapes as well; both were
// recorded while the scraper still took a full registry snapshot at every
// boundary.

core::FabricOptions bad_cable_trunk_fabric() {
  core::FabricOptions o;  // the default two-rack fabric
  o.faults.bad_cable_trunk(/*rack=*/1, /*spine=*/0, /*trunk=*/0);
  return o;
}

TEST(MetricScraper, UnfilteredIncastScrapeMatchesPinnedFingerprint) {
  core::Fabric fabric(bad_cable_trunk_fabric());
  obs::Registry reg;
  fabric.register_metrics(reg);
  ScrapeOptions so;
  so.period = sim::msec(1);
  MetricScraper scraper(reg, so);
  fleet::Options opt;  // the default incast scenario
  opt.scraper = &scraper;
  EXPECT_TRUE(fleet::run(fabric, opt).completed);

  EXPECT_EQ(scraper.scrapes(), 35u);
  EXPECT_EQ(scraper.store().series_count(), 464u);
  EXPECT_EQ(scraper.store().total_points(), 16240u);
  EXPECT_EQ(scraper.store().fingerprint(), 0xa42e1d7ebc40d05dULL);
}

// The rpc-churn scenario under a bad host cable: connections open and close
// throughout, so host CPU, bus and adapter series move at nearly every
// boundary, and a clock that reaches a job's finish late shows in them.
// The rpc seed is the one perfbench's doctor_timeline variant 1 draws for
// this fault. Recorded at the commit before Resource jobs without a
// continuation became clock marks; the marks must not move it.
TEST(MetricScraper, RpcChurnScrapeUnderBadHostCableMatchesPinnedFingerprint) {
  core::FabricOptions o;  // the default two-rack fabric
  o.faults.bad_cable_host_link(/*rack=*/0, /*host=*/2);
  core::Fabric fabric(o);
  obs::Registry reg;
  fabric.register_metrics(reg);
  ScrapeOptions so;
  so.period = sim::msec(1);
  MetricScraper scraper(reg, so);
  fleet::Options opt;
  opt.scenario = fleet::Scenario::kRpcChurn;
  opt.rpc.seed = 0x1f624db804e8368eULL;
  opt.scraper = &scraper;
  EXPECT_TRUE(fleet::run(fabric, opt).completed);

  EXPECT_EQ(scraper.scrapes(), 1230u);
  EXPECT_EQ(scraper.store().series_count(), 464u);
  EXPECT_EQ(scraper.store().total_points(), 570720u);
  EXPECT_EQ(scraper.store().fingerprint(), 0xd7b3456556b29b1dULL);
}

TEST(FleetDoctorTimeline, BadCableTrunkVerdictMatchesPinnedJson) {
  tools::FleetDoctorOptions opt;
  opt.fabric = bad_cable_trunk_fabric();
  opt.scrape_period = sim::msec(1);
  EXPECT_EQ(
      tools::run_fleet_doctor(opt).verdict.to_json(),
      "{\"schema\":\"xgbe-fleet-doctor/2\",\"clean\":false,"
      "\"frames_conserved\":true,\"connections_conserved\":true,"
      "\"findings\":[{\"component\":\"trunk-tor1-spine0-0\","
      "\"kind\":\"trunk\",\"cause\":\"bad-cable\",\"magnitude\":59,"
      "\"share\":1,\"evidence\":\"burst=59 uniform=0 corruptions=0\","
      "\"timed\":true,\"onset_ps\":3000000000,"
      "\"clear_ps\":2202000000000,\"cleared\":true,\"episodes\":11,"
      "\"transient\":true}]}");
}

// ---------------------------------------------------------------------------
// Listener churn: scraping across teardown (ASan regression)

TEST(MetricScraper, SurvivesListenerChurnTeardown) {
  // A Registry armed before churn::run holds probe closures over the
  // server's *current* listener; churn::run re-listens, which used to
  // destroy that listener and leave the closures dangling. Host::listen()
  // now retires the old listener instead, so the scraper keeps sampling it
  // across the re-listen and the final snapshot stays valid (ASan turns a
  // regression here into a hard failure).
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& client = tb.add_host("client", hw::presets::pe2650(), tuning);
  auto& server = tb.add_host("server", hw::presets::pe2650(), tuning);
  tb.connect(client, server);
  server.listen(tcp::ListenerConfig{}, server.endpoint_config());

  obs::Registry reg;
  tb.register_metrics(reg);  // probes over the pre-churn listener
  ScrapeOptions so;
  so.period = sim::msec(1);
  MetricScraper scraper(reg, so);
  tb.set_metric_scraper(&scraper);

  core::churn::Options copt;
  copt.connections = 40;
  copt.arrival_rate_hz = 1000.0;
  copt.max_bytes = 32 * 1024;
  const core::churn::Result res = core::churn::run(tb, client, server, copt);
  tb.run_for(sim::sec(1));  // scrape across TIME_WAIT teardown
  tb.set_metric_scraper(nullptr);

  EXPECT_TRUE(res.conserved());
  EXPECT_GT(res.completed, 0u);
  EXPECT_GT(scraper.scrapes(), 0u);
  EXPECT_GT(scraper.store().total_points(), 0u);
  // The retired listener's probes must still answer.
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_NE(snap.find("server/listener/half_open_peak"), nullptr);
}

}  // namespace
}  // namespace xgbe
