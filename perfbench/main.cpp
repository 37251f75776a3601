// xgbe_perfbench: host-time benchmark of the simulator.
//
//   xgbe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --reference <file> [--commit <id>] [--trace-out <file>]
//   xgbe_perfbench --workload <name> --record <file> [--golden-fig6 <file>]
//
// A run builds the workload's unit list from the seed, times several
// set-ups, then runs whole passes over the units on this thread until
// --seconds have passed (at least one pass). Every unit's deterministic
// outputs are checked against the reference recorded for that unit, and
// its seed-independent invariants are checked too. The last line of
// standard output is one JSON object: with --trace 0 the end-to-end
// metrics, with --trace 1 the per-layer metrics of a traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Tally;
using perfbench::UnitResult;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string reference;
  std::string record;
  std::string golden_fig6;
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xgbe_perfbench: %s\n"
               "usage: xgbe_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --reference <file>\n"
               "       [--commit <id>] [--trace-out <file>]\n"
               "       xgbe_perfbench --workload <name> --record <file> "
               "[--golden-fig6 <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = value[0] - '0';
    } else if (flag == "--reference") {
      a.reference = value;
    } else if (flag == "--record") {
      a.record = value;
    } else if (flag == "--golden-fig6") {
      a.golden_fig6 = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.record.empty() && a.reference.empty()) {
    usage("--reference is required");
  }
  return a;
}

/// Fixes every environment override the simulator or its bench helpers
/// read, so the caller's shell cannot change what is measured.
void pin_environment() {
  setenv("XGBE_SHARD_THREADS", "1", 1);
  setenv("XGBE_SWEEP_THREADS", "1", 1);
  setenv("XGBE_CC", "newreno", 1);
  unsetenv("XGBE_CHAOS_SEED");
}

/// Peak resident set of this process image, from /proc/self/status
/// VmHWM. getrusage's ru_maxrss is not used: Linux carries it across
/// execve, so it would report the launching process's peak when larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --- Reference ---------------------------------------------------------------
//
// One line per unit: <workload> TAB <key> TAB <outputs>. The key is
// "<unit index>/<unit id>", prefixed with "v<variant>/" for seeded
// workloads.

using Reference = std::map<std::string, std::string>;

std::string unit_key(const Workload& w, std::uint64_t variant,
                     std::size_t index, const std::string& id) {
  std::string key = std::to_string(index) + "/" + id;
  return w.seeded() ? "v" + std::to_string(variant) + "/" + key : key;
}

bool load_reference(const std::string& path, const std::string& workload,
                    Reference* out, std::vector<std::string>* other_lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      if (other_lines != nullptr) other_lines->push_back(line);
      continue;
    }
    const std::size_t t1 = line.find('\t');
    const std::size_t t2 = line.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos) continue;
    if (line.compare(0, t1, workload) == 0 && t1 == workload.size()) {
      (*out)[line.substr(t1 + 1, t2 - t1 - 1)] = line.substr(t2 + 1);
    } else if (other_lines != nullptr) {
      other_lines->push_back(line);
    }
  }
  return true;
}

/// Value of `name` in a "k=v;k=v" outputs string ("" when absent).
std::string field(const std::string& outputs, const std::string& name) {
  const std::string key = name + "=";
  std::size_t pos = 0;
  while (pos < outputs.size()) {
    const std::size_t end = outputs.find(';', pos);
    const std::string item = outputs.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    if (item.rfind(key, 0) == 0) return item.substr(key.size());
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return "";
}

// --- A pass -------------------------------------------------------------------

struct PassResult {
  double run_s = 0.0;  // nominal seconds (calibration.hpp)
  double cpu_s = 0.0;  // the same, uncalibrated
  std::vector<double> calibrations;
  std::vector<double> unit_s;  // nominal
  std::vector<std::string> keys;
  std::vector<std::string> outputs;
  perfbench::Counts counts;
};

/// Runs one pass, checking each unit against the reference (when given).
PassResult run_pass(Workload& w, std::uint64_t variant, const Reference* ref,
                    Tally& tally) {
  PassResult pass;
  perfbench::SpeedGauge gauge;
  w.run_pass([&](UnitResult&& r) {
    const std::string key = unit_key(w, variant, pass.keys.size(), r.id);
    std::string failure;
    if (ref != nullptr) {
      const auto it = ref->find(key);
      if (it == ref->end()) {
        failure = key + ": no reference recorded";
      } else if (it->second != r.outputs) {
        failure = key + ": outputs differ from the reference\n    got  " +
                  r.outputs + "\n    want " + it->second;
      }
    }
    for (const std::string& v : r.violations) {
      failure += (failure.empty() ? key + ": " : "; ") + v;
    }
    tally.attempt(failure.empty(), failure);
    const double nominal = gauge.nominal(r.host_s);
    pass.run_s += nominal;
    pass.cpu_s += r.host_s;
    pass.unit_s.push_back(nominal);
    pass.keys.push_back(key);
    pass.outputs.push_back(r.outputs);
    pass.counts.add(r.counts);
  });
  pass.calibrations = gauge.samples();
  return pass;
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_failures(const Tally& tally) {
  std::printf("fail_frac: %.6g (%llu of %llu units failed)\n",
              tally.fail_frac(),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  for (const std::string& m : tally.messages()) {
    std::printf("FAILED %s\n", m.c_str());
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Modes -------------------------------------------------------------------

/// Set-up alone (builds and handshakes), 51 times, in nominal seconds. A
/// set-up can take tens of microseconds, so each sample repeats it for at
/// least 2 ms of CPU time and keeps the mean. Taking them before any pass
/// also warms the allocator: without it the first wan_record pass ran
/// 20-30% slower than the next, so a run's figure depended on how many
/// passes fit.
std::vector<double> setup_samples(Workload& w) {
  constexpr int kSetups = 51;
  constexpr double kSampleS = 2e-3;
  perfbench::SpeedGauge gauge;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    double spent = 0.0;
    int n = 0;
    do {
      spent += w.setup_only();
      ++n;
    } while (spent < kSampleS);
    setups.push_back(gauge.nominal(spent) / n);
  }
  return setups;
}

std::vector<Metric> end_to_end(Workload& w, std::uint64_t variant,
                               const Reference& ref, double seconds,
                               Tally& tally) {
  const std::vector<double> setups = setup_samples(w);

  std::vector<double> pass_s;
  std::vector<double> cpu_s;
  std::vector<double> calibrations;
  std::vector<double> unit_s;
  double rss_mb = 0.0;
  const double start = perfbench::wall_now();
  do {
    PassResult pass = run_pass(w, variant, &ref, tally);
    // The first pass's peak: later passes reuse its memory, and how far
    // the allocator's heap grows over many passes depends on their count.
    if (pass_s.empty()) rss_mb = peak_rss_mb();
    pass_s.push_back(pass.run_s);
    cpu_s.push_back(pass.cpu_s);
    calibrations.insert(calibrations.end(), pass.calibrations.begin(),
                        pass.calibrations.end());
    unit_s.insert(unit_s.end(), pass.unit_s.begin(), pass.unit_s.end());
  } while (perfbench::wall_now() - start < seconds);

  const perfbench::Tail tail = perfbench::tail(unit_s);
  std::printf("passes: %zu; units: %zu; tail: p%d over %zu units; "
              "uncalibrated run_s: %.6g s; calibration: %.6g ms "
              "(nominal %.6g ms)\n",
              pass_s.size(), unit_s.size(), tail.percentile, tail.units,
              perfbench::median(cpu_s), perfbench::median(calibrations) * 1e3,
              perfbench::kNominalCalibrationS * 1e3);
  return {
      {"run_s", perfbench::median(pass_s), "s"},
      {"unit_ms_p50", perfbench::median(unit_s) * 1e3, "ms"},
      {"unit_ms_tail", tail.value * 1e3, "ms"},
      {"setup_s", perfbench::median(setups), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(Workload& w, std::uint64_t variant,
                              const Reference& ref, double seconds,
                              const std::string& trace_out, Tally& tally) {
  setup_samples(w);  // the same warm-up as an untraced run
  perfbench::Tracer tracer;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::map<std::string, std::vector<double>> self_s;  // per traced pass
  perfbench::Counts counts;
  std::vector<perfbench::Span> kept;  // the first traced pass, written out
  const double start = perfbench::wall_now();
  do {
    const PassResult plain = run_pass(w, variant, &ref, tally);
    untraced_s.push_back(plain.run_s);

    tracer.clear();
    perfbench::Tracer::active() = &tracer;
    const PassResult traced = run_pass(w, variant, &ref, tally);
    perfbench::Tracer::active() = nullptr;
    traced_s.push_back(traced.run_s);
    // Span times in nominal seconds, like the pass they belong to.
    const double scale = traced.cpu_s > 0 ? traced.run_s / traced.cpu_s : 1.0;
    for (const auto& [name, s] : perfbench::self_times(tracer.spans())) {
      self_s[name].push_back(s * scale);
    }
    if (kept.empty()) {
      kept = tracer.spans();
      counts = traced.counts;
    }
    // Tracing must not change what is simulated.
    for (std::size_t i = 0; i < plain.outputs.size(); ++i) {
      const bool same = i < traced.outputs.size() &&
                        traced.outputs[i] == plain.outputs[i];
      tally.attempt(same, plain.keys[i] +
                              ": traced outputs differ from untraced");
    }
  } while (perfbench::wall_now() - start < seconds);

  for (const std::string& failure : w.equivalence()) {
    tally.attempt(false, failure);
  }
  const double pool = w.pool_slowdown();

  if (!trace_out.empty() && !perfbench::write_spans(trace_out, kept)) {
    std::fprintf(stderr, "xgbe_perfbench: cannot write %s\n",
                 trace_out.c_str());
  }

  auto self = [&](const char* name) {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : perfbench::median(it->second);
  };
  const double sim_run_s = self("sim.run");
  const auto& c = counts;
  double shard_max = 0.0;
  double shard_sum = 0.0;
  for (const std::uint64_t e : c.shard_events) {
    shard_max = std::max(shard_max, static_cast<double>(e));
    shard_sum += static_cast<double>(e);
  }
  const double shard_mean =
      c.shard_events.empty() ? 0.0 : shard_sum / c.shard_events.size();
  std::vector<double> unacked(c.unacked.begin(), c.unacked.end());
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.run_s", sim_run_s, "s"},
      {"sim.events", d(c.events), "count"},
      {"sim.events_per_s", ratio(d(c.events), sim_run_s), "1/s"},
      {"sim.events_per_seg", ratio(d(c.events), d(c.segs)), "ratio"},
      {"sim.ns_per_frame", ratio(sim_run_s * 1e9, d(c.nic_frames)), "ns"},
      {"sim.windows", d(c.windows), "count"},
      {"sim.events_per_window", ratio(d(c.events), d(c.windows)), "ratio"},
      {"sim.exchanged", d(c.exchanged), "count"},
      {"sim.shard_imbalance", ratio(shard_max, shard_mean), "ratio"},
      {"sim.pool_slowdown", pool, "ratio"},
      {"core.build_s", self("core.build"), "s"},
      {"core.establish_s", self("core.establish"), "s"},
      {"core.testbeds", d(c.testbeds), "count"},
      {"tcp.app_send_s", self("tcp.app_send"), "s"},
      {"tcp.unacked_p50", perfbench::median(unacked), "count"},
      {"tcp.segs", d(c.segs), "count"},
      {"tcp.retransmits", d(c.retransmits), "count"},
      {"tcp.first_tx_ratio",
       ratio(d(c.segs) - d(c.retransmits), d(c.segs)), "ratio"},
      {"tcp.conns", d(c.conns), "count"},
      {"tcp.conn_failed", d(c.conn_failed), "count"},
      {"nic.frames", d(c.nic_frames), "count"},
      {"nic.frames_per_intr", ratio(d(c.nic_rx_frames), d(c.nic_interrupts)),
       "ratio"},
      {"nic.ring_drops", d(c.ring_drops), "count"},
      {"os.sockbuf_drops", d(c.sockbuf_drops), "count"},
      {"link.frames", d(c.link_frames), "count"},
      {"link.queue_drops", d(c.queue_drops), "count"},
      {"link.switch_forwarded", d(c.switch_forwarded), "count"},
      {"link.switch_peak_kb", d(c.switch_peak_bytes) / 1024.0, "KB"},
      {"link.fault_path_share",
       ratio(d(c.fault_reordered + c.fault_duplicated), d(c.link_frames)),
       "ratio"},
      {"fault.drops", d(c.fault_drops), "count"},
      {"fault.reordered", d(c.fault_reordered), "count"},
      {"fault.duplicated", d(c.fault_duplicated), "count"},
      {"obs.scrape_s", self("obs.scrape"), "s"},
      {"obs.probe_reads", d(c.probe_reads), "count"},
      {"obs.detect_s", self("obs.detect"), "s"},
      {"obs.snapshot_s", self("obs.snapshot"), "s"},
      {"obs.span_journeys", d(c.span_journeys), "count"},
      {"tools.diagnose_s", self("tools.diagnose"), "s"},
      {"tools.ledger_s", self("tools.ledger"), "s"},
      {"bench.trace_overhead",
       ratio(perfbench::median(traced_s), perfbench::median(untraced_s)) - 1.0,
       "ratio"},
  };
}

// --- Recording the reference ---------------------------------------------------

/// Latency of each coalesced NetPIPE point in bench/golden/fig6.json, keyed
/// "switch<S>/payload<P>".
std::map<std::string, std::string> fig6_golden(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::regex point(
      "\"Fig6_LatencyCoalesced/switch:(\\d+)/payload:(\\d+)\","
      "\"counters\":\\{\"latency_us\":([0-9.eE+-]+)");
  for (std::sregex_iterator it(json.begin(), json.end(), point), end;
       it != end; ++it) {
    out["switch" + (*it)[1].str() + "/payload" + (*it)[2].str()] =
        (*it)[3].str();
  }
  return out;
}

/// Checks a recorded pass against the paper numbers EXPERIMENTS.md lists
/// (and fig6's golden file), so a reference cannot drift from them.
std::vector<std::string> paper_checks(const std::string& workload,
                                      const PassResult& pass,
                                      const std::string& golden_fig6) {
  std::vector<std::string> failures;
  auto value = [&](const std::string& id_suffix, const char* name) {
    for (std::size_t i = 0; i < pass.keys.size(); ++i) {
      const std::string& k = pass.keys[i];
      if (k.size() >= id_suffix.size() &&
          k.compare(k.size() - id_suffix.size(), id_suffix.size(),
                    id_suffix) == 0) {
        return field(pass.outputs[i], name);
      }
    }
    return std::string();
  };
  // EXPERIMENTS.md rounds its measured values, so they are met within 1%.
  auto near = [&](const std::string& what, const std::string& got,
                  double want) {
    const double v = std::strtod(got.c_str(), nullptr);
    if (got.empty() || std::fabs(v - want) > 0.01 * std::fabs(want)) {
      failures.push_back(what + ": got " + got + ", EXPERIMENTS.md says " +
                         format_number(want));
    }
  };
  auto exact = [&](const std::string& what, const std::string& got,
                   const std::string& want) {
    if (got != want) failures.push_back(what + ": got " + got + ", want " + want);
  };
  auto peak = [&](const std::string& prefix) {
    double best = 0.0;
    for (std::size_t i = 0; i < pass.keys.size(); ++i) {
      if (pass.keys[i].find(prefix) != std::string::npos) {
        best = std::max(best,
                        std::strtod(field(pass.outputs[i], "gbps").c_str(),
                                    nullptr));
      }
    }
    return format_number(best);
  };
  // The outputs of the last unit whose key contains `part`.
  auto last = [&](const std::string& part) {
    std::string out;
    for (std::size_t i = 0; i < pass.keys.size(); ++i) {
      if (pass.keys[i].find(part) != std::string::npos) out = pass.outputs[i];
    }
    return out;
  };
  if (workload == "wan_record") {
    const std::string record = last("/record/");
    const std::string oversized = last("/oversized/");
    near("LSR Gb/s", field(record, "gbps"), 2.372);
    exact("LSR retransmits", field(record, "retx"), "0");
    near("counterfactual router drops", field(oversized, "drops"), 9237);
    exact("counterfactual retransmits", field(oversized, "retx"), "12");
  } else if (workload == "lan_ladder") {
    near("fig5 8160-MTU peak", peak("rung3/mtu8160/"), 4.26);
    near("fig5 16000-MTU peak", peak("rung3/mtu16000/"), 4.26);
    near("fig6 1 B back-to-back latency",
         value("coalesced/switch0/payload1", "latency_us"), 18.2);
    const auto golden = fig6_golden(golden_fig6);
    if (golden.size() != 22) {
      failures.push_back("fig6 golden: expected 22 points in " + golden_fig6);
    }
    for (const auto& [point, latency] : golden) {
      const std::string got = value("netpipe/coalesced/" + point, "latency_us");
      if (got != latency) {
        failures.push_back("fig6 " + point + ": latency_us " + got +
                           " differs from bench/golden/fig6.json " + latency);
      }
    }
  }
  return failures;
}

/// Records the reference for one workload (every variant of a seeded one)
/// into `path`, keeping the other workloads' lines.
int record(const Args& args) {
  std::vector<std::string> lines;
  Reference unused;
  load_reference(args.record, args.workload, &unused, &lines);
  const bool seeded = perfbench::make_workload(args.workload, 0)->seeded();
  const std::uint64_t variants = seeded ? perfbench::kVariants : 1;
  int failures = 0;
  for (std::uint64_t v = 0; v < variants; ++v) {
    auto w = perfbench::make_workload(args.workload, v);
    Tally tally;
    const PassResult pass = run_pass(*w, v, nullptr, tally);
    std::vector<std::string> problems = tally.messages();
    for (const std::string& f : paper_checks(args.workload, pass,
                                             args.golden_fig6)) {
      problems.push_back(f);
    }
    if (v == 0) {
      for (const std::string& f : w->equivalence()) problems.push_back(f);
    }
    for (const std::string& p : problems) {
      std::fprintf(stderr, "variant %llu: %s\n",
                   static_cast<unsigned long long>(v), p.c_str());
    }
    failures += static_cast<int>(problems.size());
    for (std::size_t i = 0; i < pass.keys.size(); ++i) {
      lines.push_back(args.workload + "\t" + pass.keys[i] + "\t" +
                      pass.outputs[i]);
    }
    std::fprintf(stderr, "%s variant %llu: %zu units, %.3f s\n",
                 args.workload.c_str(), static_cast<unsigned long long>(v),
                 pass.keys.size(), pass.run_s);
  }
  if (failures > 0) {
    std::fprintf(stderr, "not recording: %d check(s) failed\n", failures);
    return 1;
  }
  std::ofstream out(args.record);
  for (const std::string& line : lines) out << line << "\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr,
               "xgbe_perfbench: refusing to run a sanitizer build; its host "
               "times measure the sanitizer\n");
  return 2;
#endif
  const Args args = parse(argc, argv);
  pin_environment();
  if (!args.record.empty()) return record(args);
  const std::uint64_t variant = args.seed % perfbench::kVariants;
  auto workload = perfbench::make_workload(args.workload, variant);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  Reference ref;
  if (!load_reference(args.reference, args.workload, &ref, nullptr) ||
      ref.empty()) {
    std::fprintf(stderr, "xgbe_perfbench: no reference for %s in %s\n",
                 args.workload.c_str(), args.reference.c_str());
    return 1;
  }
  std::printf("workload: %s; seed: %llu (%s)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              workload->seeded()
                  ? ("fault/churn variant " + std::to_string(variant) + " of " +
                     std::to_string(perfbench::kVariants))
                        .c_str()
                  : "unused: this workload draws no randomness");
  std::printf("host: nproc=%u; compiler: %s; build: %s; commit: %s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("pinned: XGBE_SHARD_THREADS=1 XGBE_SWEEP_THREADS=1 "
              "XGBE_CC=newreno XGBE_CHAOS_SEED unset; one unit at a time on "
              "one thread\n");

  Tally tally;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = end_to_end(*workload, variant, ref, args.seconds, tally);
  } else {
    metrics = per_layer(*workload, variant, ref, args.seconds, args.trace_out,
                        tally);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_failures(tally);
  print_result(tally, metrics);
  return 0;
}
