// Shared helpers for the paper-reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper; these
// helpers build the standard testbeds (Fig 2 topologies, the Fig 9 WAN
// path) and run the measurement tools with bench-friendly durations.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "link/wan.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "tools/iperf.hpp"
#include "tools/netpipe.hpp"
#include "tools/nttcp.hpp"
#include "tools/pktgen.hpp"
#include "tools/stream.hpp"

namespace xgbe::bench {

/// Largest `--scrape-period` in microseconds whose picosecond period still
/// fits sim::SimTime.
inline constexpr std::int64_t kMaxScrapePeriodUsec =
    std::numeric_limits<sim::SimTime>::max() / sim::kMicrosecond;

/// Parses a `--scrape-period` value: a whole decimal number of microseconds
/// in [1, kMaxScrapePeriodUsec], with nothing before or after the digits.
/// Returns the period, or nullopt for anything else ("abc", "5ms", "-5").
inline std::optional<sim::SimTime> parse_scrape_period_usec(
    std::string_view text) {
  std::int64_t usec = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, usec);
  if (ec != std::errc() || ptr != end || usec <= 0 ||
      usec > kMaxScrapePeriodUsec) {
    return std::nullopt;
  }
  return sim::usec(usec);
}

/// Machine-readable bench results (`--json out.json`): every reported
/// benchmark row plus full metrics-registry snapshots of the testbeds the
/// helpers below built. The rendering is deterministic — no wall-clock
/// timestamps, doubles via shortest-round-trip formatting, snapshots sorted
/// by (label, content) so parallel_sweep's thread scheduling cannot reorder
/// the file. Disabled (the default) it records nothing.
class ResultLog {
 public:
  static ResultLog& instance() {
    static ResultLog log;
    return log;
  }

  bool enabled() const { return !path_.empty(); }

  /// Strips `--json <path>` / `--json=<path>`, `--cc <alg>` / `--cc=<alg>`,
  /// and `--scrape-period <usec>` / `--scrape-period=<usec>` from argv
  /// before benchmark::Initialize sees (and rejects) them. Returns the new
  /// argc. A `--scrape-period` that does not parse is kept in
  /// bad_scrape_period(); the bench main then exits 1.
  int consume_json_flag(int argc, char** argv) {
    if (argc > 0) {
      const char* slash = std::strrchr(argv[0], '/');
      binary_ = slash != nullptr ? slash + 1 : argv[0];
    }
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        path_ = argv[++i];
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        path_ = argv[i] + 7;
      } else if (std::strcmp(argv[i], "--cc") == 0 && i + 1 < argc) {
        cc_request_ = argv[++i];
      } else if (std::strncmp(argv[i], "--cc=", 5) == 0) {
        cc_request_ = argv[i] + 5;
      } else if (std::strcmp(argv[i], "--scrape-period") == 0 &&
                 i + 1 < argc) {
        set_scrape_period_usec(argv[++i]);
      } else if (std::strncmp(argv[i], "--scrape-period=", 16) == 0) {
        set_scrape_period_usec(argv[i] + 16);
      } else {
        argv[out++] = argv[i];
      }
    }
    return out;
  }

  /// Scrape cadence requested with `--scrape-period <usec>` (0 = off, the
  /// default). Benches that support time-resolved telemetry arm a
  /// MetricScraper at this period; arming never changes simulation results.
  sim::SimTime scrape_period() const { return scrape_period_; }
  /// The first `--scrape-period` value parse_scrape_period_usec() rejected.
  const std::optional<std::string>& bad_scrape_period() const {
    return bad_scrape_period_;
  }

  /// The raw `--cc` value (empty when the flag was absent); resolved by
  /// init_cc_from_request() after the XGBE_CC fallback is consulted.
  const std::string& cc_request() const { return cc_request_; }

  void add_point(const std::string& name,
                 const benchmark::UserCounters& counters) {
    if (!enabled()) return;
    Point p;
    p.name = name;
    for (const auto& [key, counter] : counters) {  // std::map: sorted keys
      p.counters.emplace_back(key, counter.value);
    }
    std::lock_guard<std::mutex> lock(mu_);
    points_.push_back(std::move(p));
  }

  /// Records one run-environment fact (e.g. the XGBE_SHARD_THREADS a sweep
  /// ran under) in the envelope's "meta" object. The object is emitted only
  /// when at least one key was set, so existing goldens stay byte-identical
  /// for runs that never call this.
  void set_meta(const std::string& key, const std::string& value) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    meta_[key] = value;
  }

  void add_snapshot(const std::string& label, const obs::Snapshot& snap) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    snapshots_.emplace_back(label, snap.to_json());
  }

  /// Records a span-profiler stage breakdown under `label` (schema v2).
  void add_breakdown(const std::string& label, const obs::SpanBreakdown& b) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    breakdowns_.emplace_back(label, obs::breakdown_json(b));
  }

  /// Records a flow-sampler time series under `label` (schema v2).
  void add_timeseries(const std::string& label,
                      const obs::FlowSampler& sampler) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    timeseries_.emplace_back(label, obs::series_json(sampler));
  }

  /// Records a metric-scraper capture plus its detector episodes under
  /// `label` (schema v3). `scrape_json` is MetricScraper::scrape_json();
  /// `episodes_json` is obs::detect::episodes_json() (pass "[]" when no
  /// detectors ran).
  void add_scrape(const std::string& label, const std::string& scrape_json,
                  const std::string& episodes_json) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    scrapes_.emplace_back(label, "{\"label\":\"" + obs::json_escape(label) +
                                     "\",\"scrape\":" + scrape_json +
                                     ",\"episodes\":" + episodes_json + "}");
  }

  /// Renders and writes the log; false on I/O failure. No-op when disabled.
  bool write() {
    if (!enabled()) return true;
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(snapshots_.begin(), snapshots_.end());
    std::sort(breakdowns_.begin(), breakdowns_.end());
    std::sort(timeseries_.begin(), timeseries_.end());
    std::sort(scrapes_.begin(), scrapes_.end());
    std::string out = "{\"schema\":\"xgbe-bench/3\",\"binary\":\"" +
                      obs::json_escape(binary_) + "\",";
    if (!meta_.empty()) {
      out += "\"meta\":{";
      bool fm = true;
      for (const auto& [key, value] : meta_) {  // std::map: sorted keys
        if (!fm) out += ',';
        fm = false;
        out += "\"" + obs::json_escape(key) + "\":\"" +
               obs::json_escape(value) + "\"";
      }
      out += "},";
    }
    out += "\"points\":[";
    bool first = true;
    for (const Point& p : points_) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + obs::json_escape(p.name) + "\",\"counters\":{";
      bool fc = true;
      for (const auto& [key, value] : p.counters) {
        if (!fc) out += ',';
        fc = false;
        out += "\"" + obs::json_escape(key) +
               "\":" + obs::format_double(value);
      }
      out += "}}";
    }
    out += "],\"snapshots\":[";
    first = true;
    for (const auto& [label, json] : snapshots_) {
      if (!first) out += ',';
      first = false;
      out += "{\"label\":\"" + obs::json_escape(label) +
             "\",\"snapshot\":" + json + "}";
    }
    out += "],\"breakdowns\":[";
    first = true;
    for (const auto& [label, json] : breakdowns_) {
      if (!first) out += ',';
      first = false;
      out += "{\"label\":\"" + obs::json_escape(label) +
             "\",\"breakdown\":" + json + "}";
    }
    out += "],\"timeseries\":[";
    first = true;
    for (const auto& [label, json] : timeseries_) {
      if (!first) out += ',';
      first = false;
      out += "{\"label\":\"" + obs::json_escape(label) +
             "\",\"series\":" + json + "}";
    }
    out += "],\"scrapes\":[";
    first = true;
    for (const auto& [label, json] : scrapes_) {
      if (!first) out += ',';
      first = false;
      out += json;
    }
    out += "]}\n";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Point {
    std::string name;
    std::vector<std::pair<std::string, double>> counters;
  };

  void set_scrape_period_usec(const char* usec) {
    const std::optional<sim::SimTime> period = parse_scrape_period_usec(usec);
    if (period.has_value()) {
      scrape_period_ = *period;
    } else if (!bad_scrape_period_.has_value()) {
      bad_scrape_period_ = usec;
    }
  }

  // parallel_sweep workers call add_snapshot concurrently.
  std::mutex mu_;
  std::string path_;
  std::string binary_;
  std::string cc_request_;
  sim::SimTime scrape_period_ = 0;
  std::optional<std::string> bad_scrape_period_;
  std::map<std::string, std::string> meta_;
  std::vector<Point> points_;
  std::vector<std::pair<std::string, std::string>> snapshots_;
  std::vector<std::pair<std::string, std::string>> breakdowns_;
  std::vector<std::pair<std::string, std::string>> timeseries_;
  std::vector<std::pair<std::string, std::string>> scrapes_;
};

/// Builds a stable point name, e.g. point_name("Fig3", {{"mtu", 1500},
/// {"payload", 128}}) -> "Fig3/mtu:1500/payload:128".
inline std::string point_name(
    const char* base,
    std::initializer_list<std::pair<const char*, std::int64_t>> args = {}) {
  std::string name = base;
  for (const auto& [key, value] : args) {
    name += "/";
    name += key;
    name += ":" + std::to_string(value);
  }
  return name;
}

/// Records the state's counters under `name` (no-op unless --json is live).
inline void log_point(benchmark::State& state, const std::string& name) {
  ResultLog::instance().add_point(name, state.counters);
}

/// Process-wide congestion-control selection for the paper ladder
/// (`--cc <newreno|cubic|dctcp>` or the XGBE_CC environment variable).
/// Defaults to NewReno, which leaves every bench byte-identical to the
/// pre-zoo goldens.
inline tcp::CcAlgorithm& active_cc_slot() {
  static tcp::CcAlgorithm alg = tcp::CcAlgorithm::kNewReno;
  return alg;
}

inline tcp::CcAlgorithm active_cc() { return active_cc_slot(); }

/// Applies the active algorithm to a tuning profile. DCTCP negotiates ECN
/// (it is inert without CE feedback); the other algorithms leave the ECN
/// bit at the caller's default so NewReno runs stay golden-identical.
inline void apply_cc(core::TuningProfile& tuning) {
  tuning.cc = active_cc();
  if (tuning.cc == tcp::CcAlgorithm::kDctcp) tuning.ecn = true;
}

/// Same, for a raw endpoint config (benches that bypass TuningProfile).
inline void apply_cc(tcp::EndpointConfig& config) {
  config.cc = active_cc();
  if (config.cc == tcp::CcAlgorithm::kDctcp) config.ecn = true;
}

/// Resolves `--cc` (falling back to XGBE_CC) into active_cc() and stamps
/// the choice into the result log's meta object — but only for non-default
/// algorithms, so default runs emit no meta and goldens stay byte-identical.
/// Returns false (after printing the offending name) on an unknown value.
inline bool init_cc_from_request() {
  std::string request = ResultLog::instance().cc_request();
  if (request.empty()) {
    if (const char* env = std::getenv("XGBE_CC");
        env != nullptr && *env != '\0') {
      request = env;
    }
  }
  if (request.empty()) return true;
  tcp::CcAlgorithm alg;
  if (!tcp::cc_from_name(request.c_str(), &alg)) {
    std::fprintf(stderr,
                 "unknown --cc algorithm '%s' (expected newreno|cubic|dctcp)\n",
                 request.c_str());
    return false;
  }
  active_cc_slot() = alg;
  if (alg != tcp::CcAlgorithm::kNewReno) {
    ResultLog::instance().set_meta("cc", tcp::cc_name(alg));
  }
  return true;
}

/// False (after printing the offending value) when a `--scrape-period` did
/// not parse.
inline bool check_scrape_period_request() {
  const std::optional<std::string>& bad =
      ResultLog::instance().bad_scrape_period();
  if (!bad.has_value()) return true;
  std::fprintf(stderr,
               "invalid --scrape-period '%s' (expected a whole number of "
               "microseconds from 1 to %lld)\n",
               bad->c_str(), static_cast<long long>(kMaxScrapePeriodUsec));
  return false;
}

/// Snapshots every metric the testbed exposes (no-op unless --json is live).
inline void maybe_snapshot(const std::string& label, core::Testbed& tb) {
  if (!ResultLog::instance().enabled()) return;
  obs::Registry reg;
  tb.register_metrics(reg);
  ResultLog::instance().add_snapshot(label, reg.snapshot());
}

/// The payload sweep used by the Fig 3-5 curves (NTTCP "packet sizes").
inline std::vector<std::int64_t> payload_sweep() {
  return {128,  512,  1024,  2048,  4096,  6144,  7436,
          8000, 8948, 10240, 12288, 14336, 16344};
}

/// Writes per NTTCP run. The paper uses 32768; 2000 reaches steady state in
/// a fraction of the wall-clock time with <2% difference in the mean.
inline constexpr std::uint32_t kNttcpCount = 2000;

/// Back-to-back NTTCP between two identical hosts (Fig 2a).
inline tools::NttcpResult nttcp_pair(const hw::SystemSpec& sys,
                                     const core::TuningProfile& tuning,
                                     std::uint32_t payload,
                                     std::uint32_t count = kNttcpCount) {
  core::Testbed tb;
  auto cc_tuning = tuning;
  apply_cc(cc_tuning);
  auto& a = tb.add_host("tx", sys, cc_tuning);
  auto& b = tb.add_host("rx", sys, cc_tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = payload;
  opt.count = count;
  auto result = tools::run_nttcp(tb, conn, a, b, opt);
  maybe_snapshot(point_name("nttcp", {{"payload", payload}}), tb);
  return result;
}

/// NetPipe latency, back-to-back or through the FastIron switch (Fig 2b).
/// `spans` (optional) is armed across the testbed before the connection
/// opens, so every measured segment is attributed; run_netpipe resets it
/// at the warmup boundary.
inline tools::NetpipeResult netpipe_pair(const hw::SystemSpec& sys,
                                         const core::TuningProfile& tuning,
                                         std::uint32_t payload,
                                         bool through_switch,
                                         obs::SpanProfiler* spans = nullptr) {
  core::Testbed tb;
  if (spans != nullptr) tb.set_span_profiler(spans);
  auto cc_tuning = tuning;
  apply_cc(cc_tuning);
  auto& a = tb.add_host("a", sys, cc_tuning);
  auto& b = tb.add_host("b", sys, cc_tuning);
  if (through_switch) {
    auto& sw = tb.add_switch();
    tb.connect_to_switch(a, sw);
    tb.connect_to_switch(b, sw);
  } else {
    tb.connect(a, b);
  }
  auto cfg = tools::netpipe_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::NetpipeOptions opt;
  opt.payload = payload;
  opt.iterations = 60;
  opt.spans = spans;
  auto result = tools::run_netpipe(tb, conn, opt);
  maybe_snapshot(point_name("netpipe", {{"payload", payload},
                                        {"switch", through_switch ? 1 : 0}}),
                 tb);
  return result;
}

/// Aggregate iperf-style throughput of several flows for a fixed window.
/// The connections must already exist in `tb`. Returns 0.0 — never a
/// division by zero — when the clock fails to advance (empty event queue:
/// every flow wedged before the window opened) or no bytes moved; when
/// `progressed` is non-null it reports whether the window saw any progress,
/// so callers can distinguish "0 Gb/s measured" from "nothing ran".
inline double drive_flows_gbps(core::Testbed& tb,
                               std::vector<core::Testbed::Connection>& conns,
                               sim::SimTime warmup = sim::msec(30),
                               sim::SimTime window = sim::msec(150),
                               bool* progressed = nullptr) {
  if (progressed != nullptr) *progressed = false;
  for (auto& conn : conns) {
    if (!tb.run_until_established(conn)) return 0.0;
  }
  auto consumed = std::make_shared<std::uint64_t>(0);
  // The continuations capture the writer weakly: a strong self-capture
  // would make each std::function own itself and leak. `writers` keeps
  // them alive through the measurement; once it goes out of scope any
  // still-queued completion locks a dead weak_ptr and the flow stops.
  std::vector<std::shared_ptr<std::function<void()>>> writers;
  writers.reserve(conns.size());
  for (auto& conn : conns) {
    conn.server->on_consumed = [consumed](std::uint64_t b) { *consumed += b; };
    auto writer = std::make_shared<std::function<void()>>();
    auto* client = conn.client;
    std::weak_ptr<std::function<void()>> weak = writer;
    *writer = [weak, client]() {
      client->app_send(65536, [weak]() {
        if (auto w = weak.lock()) (*w)();
      });
    };
    (*writer)();
    writers.push_back(std::move(writer));
  }
  tb.run_for(warmup);
  const std::uint64_t base = *consumed;
  const sim::SimTime t0 = tb.now();
  tb.run_for(window);
  for (auto& conn : conns) conn.server->on_consumed = nullptr;
  const sim::SimTime elapsed = tb.now() - t0;
  const std::uint64_t moved = *consumed - base;
  if (elapsed <= 0 || moved == 0) return 0.0;
  if (progressed != nullptr) *progressed = true;
  return static_cast<double>(moved) * 8.0 / sim::to_seconds(elapsed) / 1e9;
}

/// N GbE clients fanned through the FastIron into (or out of) a 10GbE head
/// node (Fig 2c). Returns the aggregate application throughput.
inline double multiflow_gbps(const hw::SystemSpec& head_sys, int nclients,
                             bool to_head, std::uint32_t mtu) {
  core::Testbed tb;
  auto tuning = core::TuningProfile::with_big_windows(mtu);
  apply_cc(tuning);
  auto& head = tb.add_host("head", head_sys, tuning);
  auto& sw = tb.add_switch();
  tb.connect_to_switch(head, sw);
  link::LinkSpec gbe;
  gbe.rate_bps = 1e9;
  std::vector<core::Testbed::Connection> conns;
  for (int i = 0; i < nclients; ++i) {
    auto& c = tb.add_host("client" + std::to_string(i),
                          hw::presets::gbe_client(), tuning,
                          nic::intel_e1000());
    tb.connect_to_switch(c, sw, gbe);
    auto cc = tools::iperf_config(c.endpoint_config());
    auto hc = tools::iperf_config(head.endpoint_config());
    conns.push_back(to_head ? tb.open_connection(c, head, cc, hc)
                            : tb.open_connection(head, c, hc, cc));
  }
  const double gbps = drive_flows_gbps(tb, conns);
  maybe_snapshot(point_name("multiflow", {{"clients", nclients},
                                          {"to_head", to_head ? 1 : 0},
                                          {"mtu", mtu}}),
                 tb);
  return gbps;
}

/// The Fig 9 WAN testbed: Sunnyvale host -> OC-192 -> Chicago -> OC-48 ->
/// Geneva host. Returns the iperf result and exposes the connection for
/// stats inspection.
struct WanRun {
  tools::IperfResult result;
  std::uint64_t retransmits = 0;
  std::uint64_t circuit_drops = 0;
  fault::FaultCounters faults;  // injected faults across all circuits
  double rtt_ms = 0.0;
};

/// `fault` (when active) is installed on the transatlantic OC-48 — the
/// bottleneck circuit — modelling the bursty loss and reordering real
/// transcontinental paths exhibit. `sampler` (optional) records the primary
/// stream's cwnd/srtt evolution; it is stopped before the testbed is torn
/// down so its timer never outlives the simulator.
inline WanRun wan_run(std::uint32_t buffer_bytes,
                      sim::SimTime warmup = sim::sec(8),
                      sim::SimTime duration = sim::sec(4),
                      int streams = 1,
                      const fault::FaultPlan& fault = {},
                      obs::FlowSampler* sampler = nullptr) {
  core::Testbed tb;
  if (sampler != nullptr) tb.set_flow_sampler(sampler);
  auto tuning = core::TuningProfile::wan(buffer_bytes);
  apply_cc(tuning);
  auto& a = tb.add_host("sunnyvale", hw::presets::wan_endpoint(), tuning);
  auto& b = tb.add_host("geneva", hw::presets::wan_endpoint(), tuning);
  // Circuit line cards get a 64 MB output queue (under the routers' port
  // buffers) so congestion drops land on a counted queue.
  auto circuits = tb.build_wan_path(
      a, b,
      {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm, 64u << 20),
       link::wan::oc48_pos(link::wan::kChicagoGenevaKm, 64u << 20)},
      link::wan::router_spec());
  if (fault.active()) circuits.back()->set_fault_plan(fault);
  auto cfg = tools::iperf_config(a.endpoint_config());
  cfg.read_chunk = 1 << 20;
  auto conn = tb.open_connection(a, b, cfg, cfg);
  // Additional parallel streams (the multi-stream LSR variant).
  std::vector<core::Testbed::Connection> extra;
  auto consumed_extra = std::make_shared<std::uint64_t>(0);
  for (int i = 1; i < streams; ++i) {
    extra.push_back(tb.open_connection(a, b, cfg, cfg));
  }
  std::vector<std::shared_ptr<std::function<void()>>> writers;
  for (auto& e : extra) {
    tb.run_until_established(e);
    e.server->on_consumed = [consumed_extra](std::uint64_t bytes) {
      *consumed_extra += bytes;
    };
    auto writer = std::make_shared<std::function<void()>>();
    auto* client = e.client;
    *writer = [writer, client]() {
      client->app_send(262144, [writer]() { (*writer)(); });
    };
    (*writer)();
    writers.push_back(std::move(writer));
  }
  tools::IperfOptions opt;
  opt.write_size = 256 * 1024;
  opt.warmup = warmup;
  opt.duration = duration;
  // Snapshot the extra streams' byte counts when the measurement window
  // opens (run_iperf's warmup boundary) so all streams share the window.
  auto extra_base = std::make_shared<std::uint64_t>(0);
  tb.simulator().schedule(warmup, [consumed_extra, extra_base]() {
    *extra_base = *consumed_extra;
  });
  WanRun run;
  run.result = tools::run_iperf(tb, conn, a, b, opt);
  if (streams > 1 && run.result.completed) {
    const double secs = sim::to_seconds(duration);
    run.result.throughput_bps +=
        static_cast<double>(*consumed_extra - *extra_base) * 8.0 / secs;
  }
  run.retransmits = conn.client->stats().retransmits;
  for (auto& e : extra) {
    run.retransmits += e.client->stats().retransmits;
    e.server->on_consumed = nullptr;
  }
  // Each writer captures itself; break the cycles now that the run is over.
  for (auto& writer : writers) *writer = nullptr;
  run.rtt_ms = sim::to_microseconds(conn.client->srtt()) / 1e3;
  // The sampler's probes point at endpoints owned by this testbed; stop it
  // here so its timer (and any future tick) dies with the run.
  if (sampler != nullptr) sampler->stop();
  for (auto* c : circuits) {
    run.circuit_drops += c->drops_queue();
    run.faults += c->fault_counters();
  }
  maybe_snapshot(
      point_name("wan", {{"buffer", static_cast<std::int64_t>(buffer_bytes)},
                         {"streams", streams}}),
      tb);
  return run;
}

}  // namespace xgbe::bench

/// Replacement for BENCHMARK_MAIN() that understands `--json out.json`
/// (written via bench::ResultLog). The flag is stripped before
/// benchmark::Initialize, which rejects unknown arguments.
#define XGBE_BENCH_MAIN()                                                   \
  int main(int argc, char** argv) {                                         \
    argc = ::xgbe::bench::ResultLog::instance().consume_json_flag(argc,     \
                                                                  argv);    \
    if (!::xgbe::bench::init_cc_from_request()) return 1;                   \
    if (!::xgbe::bench::check_scrape_period_request()) return 1;            \
    /* A sweep's thread count shapes wall-clock numbers, so runs under     \
       XGBE_SHARD_THREADS stamp it into the envelope's meta; unset runs    \
       emit no meta object at all, keeping golden files byte-identical. */ \
    if (const char* xgbe_st = std::getenv("XGBE_SHARD_THREADS");           \
        xgbe_st != nullptr && *xgbe_st != '\0') {                          \
      ::xgbe::bench::ResultLog::instance().set_meta("XGBE_SHARD_THREADS",  \
                                                    xgbe_st);              \
    }                                                                       \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    ::benchmark::RunSpecifiedBenchmarks();                                  \
    ::benchmark::Shutdown();                                                \
    if (!::xgbe::bench::ResultLog::instance().write()) {                    \
      std::fprintf(stderr, "failed to write --json result log\n");          \
      return 1;                                                             \
    }                                                                       \
    return 0;                                                               \
  }                                                                         \
  static_assert(true, "")
