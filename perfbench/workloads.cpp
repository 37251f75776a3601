#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string_view>
#include <thread>

#include "core/fabric.hpp"
#include "core/fleet.hpp"
#include "core/testbed.hpp"
#include "fault/oracle.hpp"
#include "link/wan.hpp"
#include "obs/detect.hpp"
#include "obs/registry.hpp"
#include "obs/scrape.hpp"
#include "obs/span.hpp"
#include "sim/random.hpp"
#include "tools/drop_report.hpp"
#include "tools/fleet_doctor.hpp"
#include "tools/iperf.hpp"
#include "tools/netpipe.hpp"
#include "tools/nttcp.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = xgbe::core;
namespace fault = xgbe::fault;
namespace fleet = xgbe::core::fleet;
namespace hw = xgbe::hw;
namespace link = xgbe::link;
namespace obs = xgbe::obs;
namespace sim = xgbe::sim;
namespace tcp = xgbe::tcp;
namespace tools = xgbe::tools;

void Counts::add(const Counts& o) {
  testbeds += o.testbeds;
  events += o.events;
  windows += o.windows;
  exchanged += o.exchanged;
  if (shard_events.size() < o.shard_events.size()) {
    shard_events.resize(o.shard_events.size(), 0);
  }
  for (std::size_t i = 0; i < o.shard_events.size(); ++i) {
    shard_events[i] += o.shard_events[i];
  }
  segs += o.segs;
  retransmits += o.retransmits;
  conns += o.conns;
  conn_failed += o.conn_failed;
  nic_frames += o.nic_frames;
  nic_rx_frames += o.nic_rx_frames;
  nic_interrupts += o.nic_interrupts;
  ring_drops += o.ring_drops;
  sockbuf_drops += o.sockbuf_drops;
  link_frames += o.link_frames;
  queue_drops += o.queue_drops;
  switch_forwarded += o.switch_forwarded;
  switch_peak_bytes = std::max(switch_peak_bytes, o.switch_peak_bytes);
  fault_drops += o.fault_drops;
  fault_reordered += o.fault_reordered;
  fault_duplicated += o.fault_duplicated;
  probe_reads += o.probe_reads;
  span_journeys += o.span_journeys;
  unacked.insert(unacked.end(), o.unacked.begin(), o.unacked.end());
}

Counts Counts::since(const Counts& b) const {
  Counts d = *this;
  d.testbeds -= b.testbeds;
  d.events -= b.events;
  d.windows -= b.windows;
  d.exchanged -= b.exchanged;
  for (std::size_t i = 0; i < b.shard_events.size(); ++i) {
    d.shard_events[i] -= b.shard_events[i];
  }
  d.segs -= b.segs;
  d.retransmits -= b.retransmits;
  d.conns -= b.conns;
  d.conn_failed -= b.conn_failed;
  d.nic_frames -= b.nic_frames;
  d.nic_rx_frames -= b.nic_rx_frames;
  d.nic_interrupts -= b.nic_interrupts;
  d.ring_drops -= b.ring_drops;
  d.sockbuf_drops -= b.sockbuf_drops;
  d.link_frames -= b.link_frames;
  d.queue_drops -= b.queue_drops;
  d.switch_forwarded -= b.switch_forwarded;
  d.fault_drops -= b.fault_drops;
  d.fault_reordered -= b.fault_reordered;
  d.fault_duplicated -= b.fault_duplicated;
  d.probe_reads -= b.probe_reads;
  d.span_journeys -= b.span_journeys;
  d.unacked.clear();
  return d;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "wan_record", "lan_ladder", "fabric_matrix", "doctor_timeline"};
  return names;
}

void begin_unit(int unit) {
  if (Tracer::active() != nullptr) Tracer::active()->set_unit(unit);
}

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(double v) { return obs::format_double(v); }

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// FNV-1a over every point of a scrape store. Same coverage as
/// TimeSeriesStore::fingerprint(), without rendering the CSV that costs
/// more host time than the scenario it checks.
std::uint64_t series_digest(const obs::TimeSeriesStore& store) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const std::string& name : store.series_names()) {
    mix(name.data(), name.size());
    const std::uint64_t evicted = store.evicted(name);
    mix(&evicted, sizeof evicted);
    for (const obs::SeriesPoint& p : store.points(name)) {
      mix(&p.at, sizeof p.at);
      mix(&p.value, sizeof p.value);
    }
  }
  return h;
}

/// Registry snapshot of a testbed, the obs-layer read every unit ends with.
obs::Snapshot snapshot(const core::Testbed& tb) {
  Scope span("obs.snapshot");
  obs::Registry reg;
  tb.register_metrics(reg);
  return reg.snapshot();
}

/// Running totals of a testbed's counters (its engine included).
Counts totals(core::Testbed& tb, const obs::Snapshot& snap) {
  Counts c;
  c.testbeds = 1;
  if (tb.sharded()) {
    sim::ShardedEngine& engine = tb.engine();
    c.events = engine.executed_events();
    c.windows = engine.windows();
    c.exchanged = engine.exchanged();
    for (std::size_t i = 0; i < engine.shard_count(); ++i) {
      c.shard_events.push_back(engine.shard(i).executed_events());
    }
  } else {
    c.events = tb.simulator().executed_events();
  }
  for (const obs::Sample& s : snap.samples) {
    const std::string_view path = s.path;
    if (path.find("/tcp/flow") != std::string_view::npos) {
      if (ends_with(path, "/segments_sent")) {  // data segments; pure ACKs
        c.segs += s.count;                      // count as acks_sent
      } else if (ends_with(path, "/retransmits")) {
        c.retransmits += s.count;
      }
    } else if (path.rfind("switch/", 0) == 0 &&
               ends_with(path, "/peak_queued_bytes")) {
      c.switch_peak_bytes = std::max(c.switch_peak_bytes,
                                     static_cast<std::uint64_t>(s.value));
    }
  }
  for (std::size_t i = 0; i < tb.host_count(); ++i) {
    const core::Host& host = tb.host_at(i);
    c.conns += host.conn_opens();
    c.sockbuf_drops += host.sockbuf_drops();
    for (std::size_t k = 0; k < host.adapter_count(); ++k) {
      const auto& nic = host.adapter(k);
      c.nic_frames += nic.tx_frames();
      c.nic_rx_frames += nic.rx_frames();
      c.nic_interrupts += nic.interrupts_raised();
      c.ring_drops += nic.rx_dropped_ring();
      const fault::FaultCounters& f = nic.rx_fault_counters();
      c.fault_drops += f.total_drops();
      c.fault_reordered += f.reorders;
      c.fault_duplicated += f.duplicates;
    }
  }
  for (std::size_t i = 0; i < tb.link_count(); ++i) {
    const link::Link& wire = tb.link_at(i);
    c.link_frames += wire.frames_delivered();
    c.queue_drops += wire.drops_queue();
    const fault::FaultCounters f = wire.fault_counters();
    c.fault_drops += f.total_drops();
    c.fault_reordered += f.reorders;
    c.fault_duplicated += f.duplicates;
  }
  for (std::size_t i = 0; i < tb.switch_count(); ++i) {
    const link::EthernetSwitch& sw = tb.switch_at(i);
    c.switch_forwarded += sw.forwarded();
    c.queue_drops += sw.dropped_queue_full();
    const fault::FaultCounters& f = sw.fault_counters();
    c.fault_drops += f.total_drops();
    c.fault_reordered += f.reorders;
    c.fault_duplicated += f.duplicates;
  }
  return c;
}

void establish(core::Testbed& tb, const core::Testbed::Connection& conn) {
  Scope span("core.establish");
  tb.run_until_established(conn);
}

/// The frame ledger of a quiescent testbed.
tools::DropReport ledger(const core::Testbed& tb) {
  Scope span("tools.ledger");
  tools::DropReport report;
  report.add_testbed(tb);
  return report;
}

// --- wan_record --------------------------------------------------------------
//
// The §4 Sunnyvale -> Geneva path exactly as bench/wan_lsr builds it, with
// tools::run_iperf's warm-up and window advanced in fixed slices so each
// slice is a unit: first the 80 MB-buffer record stream with the 250 ms
// FlowSampler armed, then the 256 MB oversized-buffer counterfactual.

class WanRecord final : public Workload {
 public:
  const char* name() const override { return "wan_record"; }
  bool seeded() const override { return false; }

  double setup_only() override {
    double spent = 0.0;
    for (const Part& part : kParts) {
      const double t0 = host_now();
      Bed bed = build(part);
      establish(*bed.tb, bed.conn);
      spent += host_now() - t0;
      sampler_.reset();  // detach before the testbed goes away
    }
    return spent;
  }

  void run_pass(const UnitSink& sink) override {
    int unit = 0;
    for (const Part& part : kParts) run_part(part, unit, sink);
  }

 private:
  // tools::run_iperf's 8 s warm-up and 4 s window, cut into slices. The
  // record streams for all 12 s and is cut finely; the counterfactual
  // collapses within 3 s and then idles, so it is cut coarsely and its idle
  // slices do not outnumber the record's.
  struct Part {
    const char* id;
    std::uint32_t buffer_bytes;
    bool sampled;
    sim::SimTime slice;
  };
  static constexpr std::array<Part, 2> kParts = {{
      {"record", 80u * 1024 * 1024, true, sim::msec(125)},
      {"oversized", 256u * 1024 * 1024, false, sim::sec(1)},
  }};
  static constexpr sim::SimTime kWarmup = sim::sec(8);
  static constexpr sim::SimTime kWindow = sim::sec(4);
  static constexpr std::uint32_t kWriteSize = 256 * 1024;

  struct Bed {
    std::unique_ptr<core::Testbed> tb;
    core::Host* a = nullptr;
    core::Host* b = nullptr;
    std::vector<link::Link*> circuits;
    core::Testbed::Connection conn;
  };

  Bed build(const Part& part) {
    Scope span("core.build");
    Bed bed;
    bed.tb = std::make_unique<core::Testbed>();
    if (part.sampled) {
      sampler_.reset();
      bed.tb->set_flow_sampler(&sampler_);
    }
    const auto tuning = core::TuningProfile::wan(part.buffer_bytes);
    bed.a = &bed.tb->add_host("sunnyvale", hw::presets::wan_endpoint(), tuning);
    bed.b = &bed.tb->add_host("geneva", hw::presets::wan_endpoint(), tuning);
    bed.circuits = bed.tb->build_wan_path(
        *bed.a, *bed.b,
        {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm, 64u << 20),
         link::wan::oc48_pos(link::wan::kChicagoGenevaKm, 64u << 20)},
        link::wan::router_spec());
    auto cfg = tools::iperf_config(bed.a->endpoint_config());
    cfg.read_chunk = 1 << 20;
    bed.conn = bed.tb->open_connection(*bed.a, *bed.b, cfg, cfg);
    return bed;
  }

  void run_part(const Part& part, int& unit, const UnitSink& sink) {
    begin_unit(unit);
    double t0 = host_now();
    Bed bed = build(part);
    establish(*bed.tb, bed.conn);
    core::Testbed& tb = *bed.tb;
    tcp::Endpoint* client = bed.conn.client;

    // tools::run_iperf's writer and byte counter, unchanged.
    struct State {
      std::uint64_t consumed = 0;
      bool running = true;
    };
    auto st = std::make_shared<State>();
    bed.conn.server->on_consumed = [st](std::uint64_t bytes) {
      st->consumed += bytes;
    };
    auto writer = std::make_shared<std::function<void()>>();
    *writer = [st, writer, client]() {
      if (!st->running) return;
      Scope span("tcp.app_send");
      client->app_send(kWriteSize, [writer]() { (*writer)(); });
    };
    (*writer)();

    std::uint64_t window_base = 0;
    sim::SimTime window_start = 0;
    Counts before;
    const int warmup_slices = static_cast<int>(kWarmup / part.slice);
    const int slices = warmup_slices + static_cast<int>(kWindow / part.slice);
    for (int k = 0; k < slices; ++k) {
      if (k > 0) {
        begin_unit(unit);
        t0 = host_now();
      }
      if (k == warmup_slices) {
        window_base = st->consumed;
        bed.a->mark_load_window();
        bed.b->mark_load_window();
        window_start = tb.now();
      }
      {
        Scope span("sim.run");
        tb.run_for(part.slice);
      }
      UnitResult r;
      r.host_s = host_now() - t0;
      r.id = std::string(part.id) + "/slice" + std::to_string(k);
      const obs::Snapshot snap = snapshot(tb);
      const Counts now = totals(tb, snap);
      r.counts = k == 0 ? now : now.since(before);
      r.counts.unacked.push_back(client->unacked_segments());
      before = now;
      std::uint64_t drops = 0;
      for (const link::Link* c : bed.circuits) drops += c->drops_queue();
      const tcp::EndpointStats& cs = client->stats();
      r.outputs = "t_ps=" + std::to_string(tb.now()) +
                  ";consumed=" + std::to_string(st->consumed) +
                  ";segs=" + std::to_string(cs.segments_sent) +
                  ";retx=" + std::to_string(cs.retransmits) +
                  ";cwnd=" + std::to_string(client->cwnd_segments()) +
                  ";unacked=" + std::to_string(client->unacked_segments()) +
                  ";drops=" + std::to_string(drops) +
                  ";samples=" + std::to_string(sampler_.rows().size()) +
                  ";fp=" + hex(fnv1a(snap.to_json()));
      if (k + 1 == slices) {
        // The counters bench/wan_lsr reports for this point.
        const std::uint64_t bytes = st->consumed - window_base;
        const double secs = sim::to_seconds(tb.now() - window_start);
        const double bps = static_cast<double>(bytes) * 8.0 / secs;
        r.outputs += ";gbps=" + fmt(bps / 1e9) +
                     ";rtt_ms=" +
                     fmt(sim::to_microseconds(client->srtt()) / 1e3);
        if (part.sampled) {
          r.outputs += ";cwnd_series=" + hex(fnv1a(sampler_.to_csv()));
        }
      }
      sink(std::move(r));
      ++unit;
    }
    st->running = false;
    bed.conn.server->on_consumed = nullptr;
    *writer = nullptr;  // break the writer's self-reference cycle
    if (part.sampled) sampler_.reset();
  }

  obs::FlowSampler sampler_{sim::msec(250)};
};

// --- lan_ladder --------------------------------------------------------------
//
// The §3.3 ladder on back-to-back PE2650s, one fresh testbed per point:
// NTTCP (2000 writes, bench/common.hpp's count) over the payload sweep for
// each rung at 1500/9000 and 8160/16000 MTU, then NetPIPE ping-pong from 1 B
// to 1 KB with coalescing on (Fig 6) and off (Fig 7), back-to-back and
// through the FastIron, with the span profiler armed as fig6 arms it.

/// Reads one endpoint's unacked segment count at fixed boundaries of
/// simulated time.
class UnackedSampler final : public sim::TimeHook {
 public:
  UnackedSampler(const tcp::Endpoint& ep, sim::SimTime period)
      : ep_(ep), period_(period), due_(period) {}
  sim::SimTime due() const override { return due_; }
  void advance(sim::SimTime) override {
    samples_.push_back(ep_.unacked_segments());
    due_ += period_;
  }
  const std::vector<std::uint32_t>& samples() const { return samples_; }

 private:
  const tcp::Endpoint& ep_;
  sim::SimTime period_;
  sim::SimTime due_;
  std::vector<std::uint32_t> samples_;
};

class LanLadder final : public Workload {
 public:
  LanLadder() {
    for (int rung = 0; rung < 4; ++rung) {
      for (const std::uint32_t mtu : {1500u, 9000u, 8160u, 16000u}) {
        for (const std::uint32_t payload : kPayloads) {
          points_.push_back({false, rung, mtu, payload, false, true});
        }
      }
    }
    for (const bool coalesce : {true, false}) {
      for (const bool through_switch : {false, true}) {
        for (const std::uint32_t payload : kPingSizes) {
          points_.push_back(
              {true, 3, 9000, payload, through_switch, coalesce});
        }
      }
    }
  }

  const char* name() const override { return "lan_ladder"; }
  bool seeded() const override { return false; }

  double setup_only() override {
    double spent = 0.0;
    for (const Point& p : points_) {
      obs::SpanProfiler spans;
      const double t0 = host_now();
      Bed bed = build(p, &spans);
      establish(*bed.tb, bed.conn);
      spent += host_now() - t0;
    }
    return spent;
  }

  void run_pass(const UnitSink& sink) override {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      begin_unit(static_cast<int>(i));
      sink(points_[i].netpipe ? run_netpipe(points_[i])
                              : run_nttcp(points_[i]));
    }
  }

 private:
  static constexpr std::array<std::uint32_t, 13> kPayloads = {
      128, 512, 1024, 2048, 4096, 6144, 7436,
      8000, 8948, 10240, 12288, 14336, 16344};
  static constexpr std::array<std::uint32_t, 11> kPingSizes = {
      1, 64, 128, 192, 256, 384, 512, 640, 768, 896, 1024};
  static constexpr std::uint32_t kWrites = 2000;
  static constexpr std::uint32_t kPings = 60;
  static constexpr std::uint32_t kWarmupPings = 10;  // NetpipeOptions default

  struct Point {
    bool netpipe;
    int rung;
    std::uint32_t mtu;
    std::uint32_t payload;
    bool through_switch;
    bool coalesce;
  };

  struct Bed {
    std::unique_ptr<core::Testbed> tb;
    core::Host* a = nullptr;
    core::Host* b = nullptr;
    core::Testbed::Connection conn;
  };

  static core::TuningProfile tuning(const Point& p) {
    core::TuningProfile t =
        core::TuningProfile::ladder(p.mtu).at(static_cast<std::size_t>(p.rung));
    if (!p.coalesce) t.intr_delay = 0;  // ethtool -C rx-usecs 0
    return t;
  }

  static std::string point_id(const Point& p) {
    if (p.netpipe) {
      return std::string("netpipe/") + (p.coalesce ? "coalesced" : "uncoalesced") +
             "/switch" + std::to_string(p.through_switch ? 1 : 0) +
             "/payload" + std::to_string(p.payload);
    }
    return "nttcp/rung" + std::to_string(p.rung) + "/mtu" +
           std::to_string(p.mtu) + "/payload" + std::to_string(p.payload);
  }

  static Bed build(const Point& p, obs::SpanProfiler* spans) {
    Scope span("core.build");
    Bed bed;
    bed.tb = std::make_unique<core::Testbed>();
    core::Testbed& tb = *bed.tb;
    const core::TuningProfile t = tuning(p);
    if (p.netpipe) {
      tb.set_span_profiler(spans);
      bed.a = &tb.add_host("a", hw::presets::pe2650(), t);
      bed.b = &tb.add_host("b", hw::presets::pe2650(), t);
      if (p.through_switch) {
        auto& sw = tb.add_switch();
        tb.connect_to_switch(*bed.a, sw);
        tb.connect_to_switch(*bed.b, sw);
      } else {
        tb.connect(*bed.a, *bed.b);
      }
      const auto cfg = tools::netpipe_config(bed.a->endpoint_config());
      bed.conn = tb.open_connection(*bed.a, *bed.b, cfg, cfg);
    } else {
      bed.a = &tb.add_host("tx", hw::presets::pe2650(), t);
      bed.b = &tb.add_host("rx", hw::presets::pe2650(), t);
      tb.connect(*bed.a, *bed.b);
      bed.conn = tb.open_connection(*bed.a, *bed.b, bed.a->endpoint_config(),
                                    bed.b->endpoint_config());
    }
    return bed;
  }

  /// Lets the last ACKs land, then checks the frame ledger and the byte
  /// stream of each direction that carried `bytes`.
  static void drain_and_check(Bed& bed, std::uint64_t bytes, bool both_ways,
                              UnitResult& r) {
    bed.tb->run_for(sim::msec(50));
    const tools::DropReport report = ledger(*bed.tb);
    if (!report.conserved()) {
      r.violations.push_back("frame ledger unbalanced: " +
                             std::to_string(report.unaccounted()));
    }
    const tcp::EndpointStats& cs = bed.conn.client->stats();
    const tcp::EndpointStats& ss = bed.conn.server->stats();
    const auto forward = fault::verify_stream_integrity(cs, ss, bytes, false);
    if (!forward.ok) r.violations.push_back("stream: " + forward.detail);
    if (both_ways) {
      const auto back = fault::verify_stream_integrity(ss, cs, bytes, false);
      if (!back.ok) r.violations.push_back("reverse stream: " + back.detail);
    }
  }

  UnitResult run_nttcp(const Point& p) {
    UnitResult r;
    r.id = point_id(p);
    const double t0 = host_now();
    Bed bed = build(p, nullptr);
    establish(*bed.tb, bed.conn);
    tools::NttcpOptions opt;
    opt.payload = p.payload;
    opt.count = kWrites;
    // Traced runs sample the sender's unacked segments every 10 us from a
    // time hook, which schedules nothing and so leaves the run unchanged.
    UnackedSampler sampler(*bed.conn.client, sim::usec(10));
    if (Tracer::active() != nullptr) bed.tb->simulator().set_time_hook(&sampler);
    tools::NttcpResult res;
    {
      Scope span("sim.run");
      res = tools::run_nttcp(*bed.tb, bed.conn, *bed.a, *bed.b, opt);
    }
    r.host_s = host_now() - t0;
    bed.tb->simulator().set_time_hook(nullptr);
    const obs::Snapshot snap = snapshot(*bed.tb);
    r.counts = totals(*bed.tb, snap);
    r.counts.unacked = sampler.samples();
    r.outputs = "gbps=" + fmt(res.throughput_gbps()) +
                ";cpu_tx=" + fmt(res.sender_load) +
                ";cpu_rx=" + fmt(res.receiver_load) +
                ";retx=" + std::to_string(res.retransmits) +
                ";segs=" + std::to_string(res.segments_sent) +
                ";rx_drops=" + std::to_string(res.receiver_drops) +
                ";fp=" + hex(fnv1a(snap.to_json()));
    if (!res.completed) r.violations.push_back("nttcp did not complete");
    drain_and_check(bed, static_cast<std::uint64_t>(p.payload) * kWrites,
                    false, r);
    return r;
  }

  UnitResult run_netpipe(const Point& p) {
    UnitResult r;
    r.id = point_id(p);
    obs::SpanProfiler spans;  // outlives the testbed that reports into it
    const double t0 = host_now();
    Bed bed = build(p, &spans);
    establish(*bed.tb, bed.conn);
    tools::NetpipeOptions opt;
    opt.payload = p.payload;
    opt.iterations = kPings;
    opt.warmup_iterations = kWarmupPings;
    opt.spans = &spans;
    tools::NetpipeResult res;
    {
      Scope span("sim.run");
      res = tools::run_netpipe(*bed.tb, bed.conn, opt);
    }
    r.host_s = host_now() - t0;
    const obs::Snapshot snap = snapshot(*bed.tb);
    r.counts = totals(*bed.tb, snap);
    const obs::SpanBreakdown b = spans.breakdown();
    r.counts.span_journeys = b.journeys;
    r.outputs = "latency_us=" + fmt(res.latency_us) +
                ";rtt_us=" + fmt(res.rtt_us) +
                ";journeys=" + std::to_string(b.journeys) +
                ";stages=" + hex(fnv1a(obs::breakdown_json(b))) +
                ";fp=" + hex(fnv1a(snap.to_json()));
    if (!res.completed) r.violations.push_back("netpipe did not complete");
    drain_and_check(bed,
                    static_cast<std::uint64_t>(p.payload) *
                        (kPings + kWarmupPings),
                    true, r);
    return r;
  }

  std::vector<Point> points_;
};

// --- fabric_matrix -----------------------------------------------------------
//
// core::fleet incast, all-to-all and RPC churn on a 4-rack, 32-host ToR/spine
// fabric split across 4 shards, the engine pinned to one thread. One trunk
// per cell carries a seeded FaultPlan with burst loss, reordering and
// duplication; each (scenario, draw) cell runs on a fresh fabric.

class FabricMatrix final : public Workload {
 public:
  explicit FabricMatrix(std::uint64_t variant) {
    sim::Rng rng(0xfab51c0000ULL + variant);
    for (std::size_t draw = 0; draw < kDraws; ++draw) {
      for (const fleet::Scenario s :
           {fleet::Scenario::kIncast, fleet::Scenario::kAllToAll,
            fleet::Scenario::kRpcChurn}) {
        cells_.push_back(make_cell(rng, s, draw));
      }
    }
  }

  const char* name() const override { return "fabric_matrix"; }
  bool seeded() const override { return true; }

  double setup_only() override {
    double spent = 0.0;
    for (const Cell& cell : cells_) {
      const double t0 = host_now();
      {
        Scope span("core.build");
        core::Fabric fabric(cell.fabric);
      }
      spent += host_now() - t0;
    }
    return spent;
  }

  void run_pass(const UnitSink& sink) override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      begin_unit(static_cast<int>(i));
      sink(run_cell(cells_[i]));
    }
  }

  double pool_slowdown() override {
    // The first incast and all-to-all cells, inline and then on the
    // engine's default worker count (one per hardware thread). Wall time:
    // the pool's work runs on its own threads.
    const auto wall_s = [](const Cell& cell, unsigned threads) {
      core::FabricOptions opt = cell.fabric;
      opt.threads = threads;
      const double t0 = wall_now();
      core::Fabric fabric(opt);
      fleet::run(fabric, cell.run);
      return wall_now() - t0;
    };
    const unsigned pool = std::max(1u, std::thread::hardware_concurrency());
    double inline_s = 0.0;
    double pool_s = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      inline_s += wall_s(cells_[i], 1);
      pool_s += wall_s(cells_[i], pool);
    }
    return inline_s > 0.0 ? pool_s / inline_s : 0.0;
  }

 private:
  static constexpr std::size_t kDraws = 4;

  struct Cell {
    core::FabricOptions fabric;
    fleet::Options run;
    std::size_t draw = 0;
  };

  static Cell make_cell(sim::Rng& rng, fleet::Scenario scenario,
                        std::size_t draw) {
    Cell cell;
    core::FabricOptions& f = cell.fabric;
    f.racks = 4;
    f.hosts_per_rack = 8;
    f.spines = 2;
    f.trunks_per_spine = 2;
    f.shards = 4;
    f.threads = 1;
    fault::FleetFault trunk;
    trunk.target = fault::FleetFault::Target::kTrunk;
    trunk.rack = rng.next_below(f.racks);
    trunk.spine = rng.next_below(f.spines);
    trunk.trunk = rng.next_below(f.trunks_per_spine);
    // Data frames only: a lost SYN backs off for seconds of simulated time,
    // which would make a cell's cost depend on the draw far more than on
    // the code under test.
    trunk.wire.burst.p_enter_bad = 0.01 + 0.02 * rng.next_double();
    trunk.wire.burst.p_exit_bad = 0.5;
    trunk.wire.burst.loss_bad = 1.0;
    trunk.wire.with_reordering(0.02 + 0.03 * rng.next_double(),
                               sim::usec(20));
    trunk.wire.with_duplication(0.01 + 0.01 * rng.next_double());
    trunk.wire.only_data();
    f.faults.seed = rng.next_u64();
    f.faults.faults.push_back(trunk);

    cell.draw = draw;
    fleet::Options& run = cell.run;
    run.scenario = scenario;
    run.incast_bytes = 64 * 1024;
    run.incast_rounds = 4;
    run.a2a_bytes = 64 * 1024;
    run.a2a_rounds = 4;  // below the host count: round n-1 would self-connect
    run.rpc.connections = 400;
    run.rpc.arrival_rate_hz = 4000.0;
    run.rpc.seed = rng.next_u64();
    return cell;
  }

  static UnitResult run_cell(const Cell& cell) {
    UnitResult r;
    r.id = std::string(fleet::scenario_name(cell.run.scenario)) + "/draw" +
           std::to_string(cell.draw);
    const double t0 = host_now();
    std::unique_ptr<core::Fabric> fabric;
    {
      Scope span("core.build");
      fabric = std::make_unique<core::Fabric>(cell.fabric);
    }
    fleet::Result res;
    {
      Scope span("sim.run");
      res = fleet::run(*fabric, cell.run);
    }
    r.host_s = host_now() - t0;
    core::Testbed& tb = fabric->testbed();
    const obs::Snapshot snap = snapshot(tb);
    r.counts = totals(tb, snap);
    tools::DropReport report = ledger(tb);
    if (cell.run.scenario == fleet::Scenario::kRpcChurn) {
      report.add_connections(res.rpc.opened, res.rpc.completed,
                             res.rpc.refused, res.rpc.aborted);
      r.counts.conn_failed = res.rpc.refused + res.rpc.aborted;
    }
    r.outputs = "consumed=" + std::to_string(res.bytes_consumed) +
                ";completed=" + std::to_string(res.completed ? 1 : 0) +
                ";finished_ps=" + std::to_string(res.finished_at) +
                ";offered=" + std::to_string(report.offered) +
                ";drops=" + std::to_string(report.total_drops()) +
                ";rpc=" + std::to_string(res.rpc.opened) + "/" +
                std::to_string(res.rpc.completed) + "/" +
                std::to_string(res.rpc.refused) + "/" +
                std::to_string(res.rpc.aborted) +
                ";fp=" + hex(fnv1a(snap.to_json()));
    if (!report.conserved()) {
      r.violations.push_back("frame ledger unbalanced: " +
                             std::to_string(report.unaccounted()));
    }
    if (!report.connections_conserved()) {
      r.violations.push_back("connection ledger unbalanced: " +
                             std::to_string(report.connections_unaccounted()));
    }
    return r;
  }

  std::vector<Cell> cells_;
};

// --- doctor_timeline ---------------------------------------------------------
//
// tools::fleet_doctor in timeline mode (a 1 ms scrape of every
// infrastructure probe) on the default two-rack fabric, composed here from
// the library's own steps so each layer gets a span: per scenario, build,
// arm the scraper, fleet::run, detect, snapshot and ledger; per session,
// diagnose. Each session injects one catalogue fault and is one unit.

/// Delegating time hook: times each MetricScraper::advance as obs.scrape.
class TimedScrape final : public sim::TimeHook {
 public:
  explicit TimedScrape(obs::MetricScraper& inner) : inner_(inner) {}
  sim::SimTime due() const override { return inner_.due(); }
  void advance(sim::SimTime at) override {
    Scope span("obs.scrape");
    inner_.advance(at);
  }

 private:
  obs::MetricScraper& inner_;
};

class DoctorTimeline final : public Workload {
 public:
  explicit DoctorTimeline(std::uint64_t variant) {
    sim::Rng rng(0xd0c7000000ULL + variant);
    for (int kind = 0; kind < kKinds; ++kind) {
      sessions_.push_back(make_session(rng, kind));
    }
  }

  const char* name() const override { return "doctor_timeline"; }
  bool seeded() const override { return true; }

  double setup_only() override {
    double spent = 0.0;
    for (const Session& s : sessions_) {
      for (std::size_t i = 0; i < s.options.scenarios.size(); ++i) {
        const double t0 = host_now();
        {
          Scope span("core.build");
          core::Fabric fabric(s.options.fabric);
          obs::Registry scrape_reg;
          fabric.register_metrics(scrape_reg);
        }
        spent += host_now() - t0;
      }
    }
    return spent;
  }

  void run_pass(const UnitSink& sink) override {
    verdicts_.clear();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      verdicts_.push_back(
          run_session(sessions_[i], static_cast<int>(i), sink));
    }
  }

  std::vector<std::string> equivalence() override {
    // The composed session against tools::run_fleet_doctor, per session.
    std::vector<std::string> failures;
    if (verdicts_.size() != sessions_.size()) {
      run_pass([](UnitResult&&) {});
    }
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const std::string library =
          tools::run_fleet_doctor(sessions_[i].options).verdict.to_json();
      if (library != verdicts_[i]) {
        failures.push_back(sessions_[i].label +
                           ": composed verdict differs from "
                           "tools::run_fleet_doctor\n  composed: " +
                           verdicts_[i] + "\n  library:  " + library);
      }
    }
    return failures;
  }

 private:
  static constexpr int kKinds = 5;

  struct Session {
    tools::FleetDoctorOptions options;
    fault::FleetFault fault;  // the injected catalogue fault
    std::string label;
    std::string component;  // what the verdict must name
    std::string cause;
  };

  /// One catalogue fault per session, at the coordinates the doctor's
  /// localization test uses and with the catalogue's own fault-plan seed;
  /// the seed draws the RPC churn's arrivals and sizes. Re-seeding the bad
  /// cable's loss pattern was measured to strand handshakes for up to 22 s
  /// of simulated time (against 35 ms), which moved a pass's host time
  /// from 0.9 s to 4.7 s with the seed.
  static Session make_session(sim::Rng& rng, int kind) {
    Session s;
    s.options.scrape_period = sim::msec(1);
    s.options.scenarios.resize(3);  // run_fleet_doctor's canonical three
    s.options.scenarios[0].scenario = fleet::Scenario::kIncast;
    s.options.scenarios[1].scenario = fleet::Scenario::kAllToAll;
    s.options.scenarios[2].scenario = fleet::Scenario::kRpcChurn;
    s.options.scenarios[2].rpc.seed = rng.next_u64();
    core::FabricOptions& f = s.options.fabric;  // the default two-rack fabric
    switch (kind) {
      case 0:
        f.faults.bad_cable_trunk(/*rack=*/1, /*spine=*/0, /*trunk=*/0);
        s.cause = "bad-cable";
        break;
      case 1:
        f.faults.bad_cable_host_link(/*rack=*/0, /*host=*/2);
        s.cause = "bad-cable";
        break;
      case 2:
        f.faults.flapping_trunk(/*rack=*/1, /*spine=*/0, /*trunk=*/1);
        s.cause = "carrier-flap";
        break;
      case 3:
        f.faults.half_speed_trunk(/*rack=*/0, /*spine=*/0, /*trunk=*/1, 5e9);
        s.cause = "half-speed-link";
        break;
      default:
        f.faults.dma_throttled_host(/*rack=*/1, /*host=*/1, sim::msec(1),
                                    sim::msec(60));
        s.cause = "host-dma-throttle";
        break;
    }
    s.fault = f.faults.faults.front();
    const core::Fabric named(f);
    s.component = named.fault_component(s.fault);
    s.label = s.fault.label + " rpc_seed=" + hex(s.options.scenarios[2].rpc.seed);
    return s;
  }

  /// Whether the injected fault touched any traffic in this fabric. A loss
  /// pattern can miss every frame, and then the doctor must stay silent
  /// rather than name it.
  static bool fault_fired(const Session& s, core::Fabric& fabric) {
    const fault::FleetFault& f = s.fault;
    switch (f.target) {
      case fault::FleetFault::Target::kHostLink:
        return fabric.host_link(f.rack, f.host).fault_counters().total_drops() >
               0;
      case fault::FleetFault::Target::kTrunk: {
        if (f.rate_override_bps > 0) return true;
        const fault::FaultCounters c =
            fabric.trunk(f.rack, f.spine, f.trunk).fault_counters();
        return c.total_drops() > 0 || c.flaps > 0;
      }
      case fault::FleetFault::Target::kHost:
        return fabric.host(f.rack, f.host).host_fault_counters().dma_throttled >
               0;
    }
    return false;
  }

  /// One session, one unit; returns its verdict JSON.
  std::string run_session(const Session& s, int unit, const UnitSink& sink) {
    const tools::FleetDoctorOptions& options = s.options;
    begin_unit(unit);
    UnitResult r;
    r.id = s.cause + "/" + s.component;
    tools::MetricMap merged;
    tools::DropReport session_ledger;
    std::vector<obs::detect::Episode> episodes;
    bool fired = false;
    double spent = 0.0;
    for (const fleet::Options& scen : options.scenarios) {
      const double t0 = host_now();
      std::unique_ptr<core::Fabric> fabric;
      obs::Registry scrape_reg;
      std::unique_ptr<obs::MetricScraper> scraper;
      {
        Scope span("core.build");
        fabric = std::make_unique<core::Fabric>(options.fabric);
        fabric->register_metrics(scrape_reg);
        obs::ScrapeOptions so;
        so.period = options.scrape_period;
        so.max_points = options.scrape_max_points;
        scraper = std::make_unique<obs::MetricScraper>(scrape_reg, so);
      }
      // Armed as fleet::run arms Options::scraper, through a timing
      // delegate.
      TimedScrape hook(*scraper);
      fabric->testbed().engine().set_time_hook(&hook);
      fleet::Result res;
      {
        Scope span("sim.run");
        res = fleet::run(*fabric, scen);
      }
      fabric->testbed().engine().set_time_hook(nullptr);
      std::vector<obs::detect::Episode> eps;
      {
        Scope span("obs.detect");
        eps = obs::detect::run_detectors(scraper->store(), options.detect);
      }
      episodes.insert(episodes.end(), eps.begin(), eps.end());
      const obs::Snapshot snap = snapshot(fabric->testbed());
      tools::accumulate(merged, snap);
      {
        Scope span("tools.ledger");
        session_ledger.add_testbed(fabric->testbed());
        if (scen.scenario == fleet::Scenario::kRpcChurn) {
          session_ledger.add_connections(res.rpc.opened, res.rpc.completed,
                                         res.rpc.refused, res.rpc.aborted);
        }
      }
      spent += host_now() - t0;

      fired = fired || fault_fired(s, *fabric);
      r.outputs += std::string(fleet::scenario_name(scen.scenario)) +
                   ":consumed=" + std::to_string(res.bytes_consumed) +
                   ";completed=" + std::to_string(res.completed ? 1 : 0) +
                   ";finished_ps=" + std::to_string(res.finished_at) +
                   ";scrapes=" + std::to_string(scraper->scrapes()) +
                   ";series=" + hex(series_digest(scraper->store())) +
                   ";episodes=" +
                   hex(fnv1a(obs::detect::episodes_json(eps))) +
                   ";fp=" + hex(fnv1a(snap.to_json())) + ";";
      Counts c = totals(fabric->testbed(), snap);
      c.probe_reads = scraper->scrapes() * scraper->store().series_count();
      if (scen.scenario == fleet::Scenario::kRpcChurn) {
        c.conn_failed = res.rpc.refused + res.rpc.aborted;
      }
      r.counts.add(c);
    }
    const double t0 = host_now();
    tools::Verdict verdict;
    {
      Scope span("tools.diagnose");
      verdict = tools::diagnose(merged, session_ledger, options.thresholds);
      tools::apply_timeline(verdict, episodes);
    }
    r.host_s = spent + (host_now() - t0);

    const std::string verdict_json = verdict.to_json();
    r.outputs += "verdict=" + hex(fnv1a(verdict_json));
    if (!session_ledger.conserved()) {
      r.violations.push_back("frame ledger unbalanced: " +
                             std::to_string(session_ledger.unaccounted()));
    }
    if (!session_ledger.connections_conserved()) {
      r.violations.push_back(
          "connection ledger unbalanced: " +
          std::to_string(session_ledger.connections_unaccounted()));
    }
    if (!fired) {
      if (!verdict.clean()) {
        r.violations.push_back(s.label +
                               ": the fault never fired, yet the doctor "
                               "reported findings");
      }
    } else if (verdict.clean()) {
      r.violations.push_back(s.label + ": the doctor found nothing");
    } else if (verdict.findings.front().component != s.component ||
               verdict.findings.front().cause != s.cause) {
      r.violations.push_back(s.label + ": the doctor blamed " +
                             verdict.findings.front().component + " (" +
                             verdict.findings.front().cause + "), not " +
                             s.component + " (" + s.cause + ")");
    }
    sink(std::move(r));
    return verdict_json;
  }

  std::vector<Session> sessions_;
  std::vector<std::string> verdicts_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t variant) {
  if (name == "wan_record") return std::make_unique<WanRecord>();
  if (name == "lan_ladder") return std::make_unique<LanLadder>();
  if (name == "fabric_matrix") return std::make_unique<FabricMatrix>(variant);
  if (name == "doctor_timeline") {
    return std::make_unique<DoctorTimeline>(variant);
  }
  return nullptr;
}

}  // namespace perfbench
