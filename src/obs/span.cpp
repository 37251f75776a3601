#include "obs/span.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {

namespace {

constexpr const char* kStageNames[kStageCount] = {
    "app-write",   "sockbuf", "tx-ring",       "tx-dma",   "wire",
    "switch-queue", "rx-ring", "intr-coalesce", "rx-stack", "app-read",
};

double ps_to_us(std::int64_t ps) { return static_cast<double>(ps) * 1e-6; }

}  // namespace

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

std::int64_t SpanBreakdown::stage_sum_ps() const {
  std::int64_t sum = 0;
  for (std::int64_t ps : stage_total_ps) sum += ps;
  return sum;
}

double SpanBreakdown::stage_mean_us(Stage stage) const {
  if (journeys == 0) return 0.0;
  return ps_to_us(stage_total_ps[static_cast<std::size_t>(stage)]) /
         static_cast<double>(journeys);
}

double SpanBreakdown::end_to_end_mean_us() const {
  if (journeys == 0) return 0.0;
  return ps_to_us(end_to_end_total_ps) / static_cast<double>(journeys);
}

std::string format_breakdown_table(const SpanBreakdown& b,
                                   double measured_us) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line,
                "  %-14s %12s %8s\n", "stage", "mean (us)", "share");
  out += line;
  const double e2e = b.end_to_end_mean_us();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const double mean = b.stage_mean_us(stage);
    const double share = e2e > 0.0 ? 100.0 * mean / e2e : 0.0;
    std::snprintf(line, sizeof line, "  %-14s %12.4f %7.1f%%\n",
                  stage_name(stage), mean, share);
    out += line;
  }
  std::snprintf(line, sizeof line, "  %-14s %12.4f %7.1f%%  (%llu journeys",
                "end-to-end", e2e, e2e > 0.0 ? 100.0 : 0.0,
                static_cast<unsigned long long>(b.journeys));
  out += line;
  if (b.aborted != 0 || b.overflowed != 0) {
    std::snprintf(line, sizeof line, ", %llu aborted, %llu overflowed",
                  static_cast<unsigned long long>(b.aborted),
                  static_cast<unsigned long long>(b.overflowed));
    out += line;
  }
  out += ")\n";
  if (measured_us >= 0.0) {
    std::snprintf(line, sizeof line, "  %-14s %12.4f\n", "measured",
                  measured_us);
    out += line;
  }
  return out;
}

std::string breakdown_json(const SpanBreakdown& b) {
  std::string out = "{\"journeys\":" + std::to_string(b.journeys);
  out += ",\"opened\":" + std::to_string(b.opened);
  out += ",\"aborted\":" + std::to_string(b.aborted);
  out += ",\"overflowed\":" + std::to_string(b.overflowed);
  out += ",\"end_to_end\":{\"total_ps\":" +
         std::to_string(b.end_to_end_total_ps) +
         ",\"mean_us\":" + format_double(b.end_to_end_mean_us()) + "}";
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    if (i != 0) out += ",";
    out += "{\"stage\":\"";
    out += stage_name(stage);
    out += "\",\"total_ps\":" + std::to_string(b.stage_total_ps[i]) +
           ",\"mean_us\":" + format_double(b.stage_mean_us(stage)) + "}";
  }
  out += "]}";
  return out;
}

SpanProfiler::SpanProfiler(double hist_max_us, std::size_t hist_buckets,
                           std::size_t max_open)
    : e2e_hist_(0.0, hist_max_us, hist_buckets),
      hist_max_us_(hist_max_us),
      hist_buckets_(hist_buckets),
      max_open_(max_open) {
  stage_hist_.reserve(kStageCount);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_hist_.emplace_back(0.0, hist_max_us, hist_buckets);
  }
}

bool SpanProfiler::eligible(const net::Packet& pkt) {
  return pkt.protocol == net::Protocol::kTcp && pkt.payload_bytes > 0 &&
         !pkt.tcp.flags.syn && !pkt.tcp.flags.fin;
}

void SpanProfiler::begin(const net::Packet& pkt, sim::SimTime write_call,
                         sim::SimTime write_done, sim::SimTime emitted) {
  if (!eligible(pkt)) return;
  const Key key{pkt.flow, pkt.src, pkt.tcp.seq};
  // A stale journey under the same key (e.g. sequence wrap in a very long
  // run) is superseded rather than corrupted.
  if (auto it = open_.find(key); it != open_.end()) {
    open_.erase(it);
    ++aborted_;
  }
  if (open_.size() >= max_open_) {
    ++overflowed_;
    return;
  }
  Journey j;
  j.begin_at = write_call;
  j.dur[static_cast<std::size_t>(Stage::kAppWrite)] = write_done - write_call;
  j.dur[static_cast<std::size_t>(Stage::kSockbuf)] = emitted - write_done;
  j.last_stage = Stage::kTxRing;
  j.last_at = emitted;
  j.len = pkt.payload_bytes;
  open_.emplace(key, j);
  ++opened_;
}

void SpanProfiler::mark(const net::Packet& pkt, Stage stage, sim::SimTime at) {
  if (!eligible(pkt)) return;
  auto it = open_.find(Key{pkt.flow, pkt.src, pkt.tcp.seq});
  if (it == open_.end()) return;
  Journey& j = it->second;
  j.dur[static_cast<std::size_t>(j.last_stage)] += at - j.last_at;
  j.last_stage = stage;
  j.last_at = at;
}

void SpanProfiler::abort(const net::Packet& pkt) {
  if (!eligible(pkt)) return;
  if (open_.erase(Key{pkt.flow, pkt.src, pkt.tcp.seq}) != 0) ++aborted_;
}

void SpanProfiler::finish_consumed(net::FlowId flow, net::NodeId src,
                                   net::Seq consumed_upto, sim::SimTime at) {
  // Keys order by (flow, src, seq); scan the whole flow+src range and close
  // every journey whose payload the receiver has fully consumed.
  auto it = open_.lower_bound(Key{flow, src, 0});
  while (it != open_.end() && it->first.flow == flow &&
         it->first.src == src) {
    Journey& j = it->second;
    if (net::seq_le(it->first.seq + j.len, consumed_upto)) {
      finish(j, at);
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

void SpanProfiler::finish(Journey& j, sim::SimTime at) {
  j.dur[static_cast<std::size_t>(j.last_stage)] += at - j.last_at;
  const std::int64_t total = at - j.begin_at;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_total_ps_[i] += j.dur[i];
    stage_hist_[i].add(ps_to_us(j.dur[i]));
  }
  end_to_end_total_ps_ += total;
  e2e_hist_.add(ps_to_us(total));
  ++journeys_;
  if (observer_) observer_(j.dur);
}

void SpanProfiler::reset() {
  open_.clear();
  stage_total_ps_.fill(0);
  end_to_end_total_ps_ = 0;
  journeys_ = opened_ = aborted_ = overflowed_ = 0;
  stage_hist_.clear();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_hist_.emplace_back(0.0, hist_max_us_, hist_buckets_);
  }
  e2e_hist_ = sim::Histogram(0.0, hist_max_us_, hist_buckets_);
}

SpanBreakdown SpanProfiler::breakdown() const {
  SpanBreakdown b;
  b.stage_total_ps = stage_total_ps_;
  b.end_to_end_total_ps = end_to_end_total_ps_;
  b.journeys = journeys_;
  b.opened = opened_;
  b.aborted = aborted_;
  b.overflowed = overflowed_;
  return b;
}

const sim::Histogram& SpanProfiler::stage_histogram(Stage stage) const {
  return stage_hist_[static_cast<std::size_t>(stage)];
}

const sim::Histogram& SpanProfiler::end_to_end_histogram() const {
  return e2e_hist_;
}

FlowSampler::FlowSampler(sim::SimTime interval, std::size_t max_samples)
    : interval_(interval < 1 ? 1 : interval), max_samples_(max_samples) {}

void FlowSampler::attach(sim::Simulator& sim) {
  sim_ = &sim;
  arm();
}

void FlowSampler::watch(net::FlowId flow, Probe probe) {
  probes_.emplace_back(flow, std::move(probe));
  arm();
}

void FlowSampler::arm() {
  if (armed_ || sim_ == nullptr || probes_.empty()) return;
  if (rows_.size() >= max_samples_) return;
  armed_ = true;
  timer_ = sim_->schedule(interval_, [this]() {
    armed_ = false;
    tick();
  });
}

void FlowSampler::tick() {
  for (auto& [flow, probe] : probes_) {
    if (rows_.size() >= max_samples_) break;
    rows_.push_back(Row{sim_->now(), flow, probe()});
  }
  arm();
}

void FlowSampler::stop() {
  if (armed_ && sim_ != nullptr) sim_->cancel(timer_);
  armed_ = false;
}

void FlowSampler::reset() {
  stop();
  sim_ = nullptr;
  probes_.clear();
  rows_.clear();
}

std::string FlowSampler::to_csv() const {
  std::string out =
      "at_ps,flow,cwnd_segments,ssthresh_segments,flight_bytes,srtt_us,"
      "rwnd_bytes,cc_state\n";
  for (const Row& r : rows_) {
    out += std::to_string(r.at) + "," + std::to_string(r.flow) + "," +
           std::to_string(r.sample.cwnd_segments) + "," +
           std::to_string(r.sample.ssthresh_segments) + "," +
           std::to_string(r.sample.flight_bytes) + "," +
           format_double(sim::to_microseconds(r.sample.srtt)) + "," +
           std::to_string(r.sample.rwnd_bytes) + "," +
           std::to_string(r.sample.cc_state) + "\n";
  }
  return out;
}

std::string FlowSampler::to_jsonl() const {
  std::string out;
  for (const Row& r : rows_) {
    out += "{\"at_ps\":" + std::to_string(r.at) +
           ",\"flow\":" + std::to_string(r.flow) +
           ",\"cwnd_segments\":" + std::to_string(r.sample.cwnd_segments) +
           ",\"ssthresh_segments\":" +
           std::to_string(r.sample.ssthresh_segments) +
           ",\"flight_bytes\":" + std::to_string(r.sample.flight_bytes) +
           ",\"srtt_us\":" + format_double(sim::to_microseconds(r.sample.srtt)) +
           ",\"rwnd_bytes\":" + std::to_string(r.sample.rwnd_bytes) +
           ",\"cc_state\":" + std::to_string(r.sample.cc_state) + "}\n";
  }
  return out;
}

std::string series_json(const FlowSampler& sampler) {
  std::string out =
      "{\"interval_ps\":" + std::to_string(sampler.interval()) +
      ",\"columns\":[\"at_ps\",\"flow\",\"cwnd_segments\","
      "\"ssthresh_segments\",\"flight_bytes\",\"srtt_us\",\"rwnd_bytes\","
      "\"cc_state\"]"
      ",\"rows\":[";
  bool first = true;
  for (const FlowSampler::Row& r : sampler.rows()) {
    if (!first) out += ",";
    first = false;
    out += "[" + std::to_string(r.at) + "," + std::to_string(r.flow) + "," +
           std::to_string(r.sample.cwnd_segments) + "," +
           std::to_string(r.sample.ssthresh_segments) + "," +
           std::to_string(r.sample.flight_bytes) + "," +
           format_double(sim::to_microseconds(r.sample.srtt)) + "," +
           std::to_string(r.sample.rwnd_bytes) + "," +
           std::to_string(r.sample.cc_state) + "]";
  }
  out += "]}";
  return out;
}

}  // namespace xgbe::obs
