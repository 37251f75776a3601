#include "obs/detect.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace xgbe::obs::detect {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::vector<Episode> detect_increase(const std::vector<SeriesPoint>& points,
                                     const std::string& series,
                                     const std::string& cause,
                                     const DetectOptions& opt) {
  std::vector<Episode> out;
  Episode ep;
  bool open = false;
  int quiet = 0;
  sim::SimTime first_quiet = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    const std::int64_t delta = points[i].value - points[i - 1].value;
    if (delta > 0) {
      if (!open) {
        ep = Episode{series, cause, points[i].at, 0, false, 0};
        open = true;
      }
      ep.severity += delta;
      quiet = 0;
    } else if (open) {
      if (quiet == 0) first_quiet = points[i].at;
      if (++quiet >= opt.clear_intervals) {
        ep.clear = first_quiet;
        ep.cleared = true;
        out.push_back(ep);
        open = false;
        quiet = 0;
      }
    }
  }
  if (open) out.push_back(ep);
  return out;
}

std::vector<Episode> detect_threshold(const std::vector<SeriesPoint>& points,
                                      const std::string& series,
                                      const std::string& cause,
                                      std::int64_t threshold) {
  std::vector<Episode> out;
  Episode ep;
  bool open = false;
  for (const SeriesPoint& p : points) {
    if (p.value >= threshold) {
      if (!open) {
        ep = Episode{series, cause, p.at, 0, false, p.value};
        open = true;
      }
      ep.severity = std::max(ep.severity, p.value);
    } else if (open) {
      ep.clear = p.at;
      ep.cleared = true;
      out.push_back(ep);
      open = false;
    }
  }
  if (open) out.push_back(ep);
  return out;
}

std::vector<Episode> detect_rate_collapse(
    const std::vector<SeriesPoint>& points, const std::string& series,
    const std::string& cause, const DetectOptions& opt) {
  std::vector<Episode> out;
  Episode ep;
  bool open = false;
  std::int64_t peak_delta = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    const std::int64_t delta = points[i].value - points[i - 1].value;
    peak_delta = std::max(peak_delta, delta);
    const bool collapsed = peak_delta >= opt.rate_floor && delta * 4 <= peak_delta;
    if (collapsed) {
      if (!open) {
        ep = Episode{series, cause, points[i].at, 0, false, 0};
        open = true;
      }
      ++ep.severity;
    } else if (open) {
      ep.clear = points[i].at;
      ep.cleared = true;
      out.push_back(ep);
      open = false;
    }
  }
  if (open) out.push_back(ep);
  return out;
}

namespace {

enum class Rule { kNone, kIncrease, kQueueSaturation, kSrttInflation, kRate };

struct Match {
  Rule rule = Rule::kNone;
  const char* cause = nullptr;
};

/// The detector policy of run_detectors(), decided from the series' name
/// and unit alone so that series no rule judges are never decoded.
Match match_rule(const std::string& name, const TimeSeriesStore& store) {
  if (ends_with(name, "/fault/flaps") ||
      ends_with(name, "/fault/drops_carrier")) {
    return {Rule::kIncrease, "carrier-flap"};
  }
  if (ends_with(name, "/fault/drops_burst") ||
      ends_with(name, "/fault/drops_uniform") ||
      ends_with(name, "/fault/drops_forced") ||
      ends_with(name, "/fault/corruptions") ||
      ends_with(name, "/fault/drops_handshake") ||
      ends_with(name, "/fault/duplicates") ||
      ends_with(name, "/fault/reorders")) {
    return {Rule::kIncrease, "bad-cable"};
  }
  if (ends_with(name, "/dropped_queue_full") &&
      name.rfind("switch/", 0) == 0) {
    // switch/<sw>/port/<egress>/dropped_queue_full — the egress link name
    // decides trunk congestion vs incast collapse, like the doctor.
    const std::size_t tail = name.rfind('/');
    const std::size_t head = name.rfind('/', tail - 1);
    const std::string egress = name.substr(head + 1, tail - head - 1);
    const bool trunk = egress.rfind("trunk-", 0) == 0;
    return {Rule::kIncrease, trunk ? "congested-trunk" : "incast-collapse"};
  }
  if (ends_with(name, "/host_fault/dma_throttled")) {
    return {Rule::kIncrease, "host-dma-throttle"};
  }
  if (ends_with(name, "/host_fault/alloc_fail_rx") ||
      ends_with(name, "/host_fault/alloc_fail_tx")) {
    return {Rule::kIncrease, "host-memory-pressure"};
  }
  if (ends_with(name, "/host_fault/ring_stall_drops") ||
      ends_with(name, "/host_fault/tx_ring_stalls")) {
    return {Rule::kIncrease, "host-ring-stall"};
  }
  if (ends_with(name, "/queued_bytes")) {
    return {Rule::kQueueSaturation, "queue-saturation"};
  }
  if (name.find("srtt") != std::string::npos && store.unit(name) == "milli") {
    return {Rule::kSrttInflation, "srtt-inflation"};
  }
  if (ends_with(name, "/frames_delivered") && name.rfind("link/", 0) == 0) {
    return {Rule::kRate, "rate-collapse"};
  }
  return {};
}

}  // namespace

std::vector<Episode> run_detectors(const TimeSeriesStore& store,
                                   const DetectOptions& opt) {
  std::vector<Episode> out;
  for (const std::string& name : store.series_names()) {
    const Match m = match_rule(name, store);
    if (m.rule == Rule::kNone) continue;
    const std::vector<SeriesPoint> pts = store.points(name);
    if (pts.size() < 2) continue;
    std::vector<Episode> eps;
    switch (m.rule) {
      case Rule::kNone:
        break;
      case Rule::kIncrease:
        eps = detect_increase(pts, name, m.cause, opt);
        break;
      case Rule::kQueueSaturation: {
        std::int64_t peak = 0;
        for (const SeriesPoint& p : pts) peak = std::max(peak, p.value);
        if (peak >= opt.queue_floor && opt.queue_saturation_den > 0) {
          const std::int64_t threshold =
              peak * opt.queue_saturation_num / opt.queue_saturation_den;
          eps = detect_threshold(pts, name, m.cause, threshold);
        }
        break;
      }
      case Rule::kSrttInflation: {
        std::int64_t baseline = 0;
        for (const SeriesPoint& p : pts) {
          if (p.value > 0) {
            baseline = p.value;
            break;
          }
        }
        if (baseline > 0) {
          eps = detect_threshold(pts, name, m.cause,
                                 baseline * opt.inflation_factor + 1);
        }
        break;
      }
      case Rule::kRate:
        eps = detect_rate_collapse(pts, name, m.cause, opt);
        break;
    }
    out.insert(out.end(), eps.begin(), eps.end());
  }
  // series_names() is sorted and per-series episodes are chronological, so
  // the list is already (series, onset)-ordered; keep the sort as the
  // stated contract anyway.
  std::sort(out.begin(), out.end(), [](const Episode& a, const Episode& b) {
    if (a.series != b.series) return a.series < b.series;
    if (a.onset != b.onset) return a.onset < b.onset;
    return a.cause < b.cause;
  });
  return out;
}

std::string episodes_json(const std::vector<Episode>& episodes) {
  std::string out = "[";
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& e = episodes[i];
    if (i != 0) out += ',';
    out += "{\"series\":\"" + json_escape(e.series) + "\",\"cause\":\"" +
           json_escape(e.cause) + "\"";
    append_format(out,
                  ",\"onset_ps\":%lld,\"clear_ps\":%lld,\"cleared\":%s,"
                  "\"severity\":%lld}",
                  static_cast<long long>(e.onset),
                  static_cast<long long>(e.clear),
                  e.cleared ? "true" : "false",
                  static_cast<long long>(e.severity));
  }
  out += ']';
  return out;
}

}  // namespace xgbe::obs::detect
