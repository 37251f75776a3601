#include "obs/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "obs/trace.hpp"

namespace xgbe::obs {

std::string format_double(double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan literals; clamp to a recognizable sentinel.
    if (std::isnan(v)) return "\"nan\"";
    return v > 0 ? "\"inf\"" : "\"-inf\"";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_format(out, "\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

const Sample* Snapshot::find(std::string_view path) const {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), path,
      [](const Sample& s, std::string_view p) { return s.path < p; });
  if (it == samples.end() || it->path != path) return nullptr;
  return &*it;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) out += ',';
    first = false;
    out += "{\"path\":\"" + json_escape(s.path) + "\"";
    switch (s.kind) {
      case Kind::kCounter:
        append_format(out, ",\"kind\":\"counter\",\"value\":%llu",
                      static_cast<unsigned long long>(s.count));
        break;
      case Kind::kGauge:
        out += ",\"kind\":\"gauge\",\"value\":" + format_double(s.value);
        break;
      case Kind::kDistribution:
        append_format(out, ",\"kind\":\"distribution\",\"count\":%llu",
                      static_cast<unsigned long long>(s.count));
        out += ",\"mean\":" + format_double(s.value);
        out += ",\"min\":" + format_double(s.min);
        out += ",\"max\":" + format_double(s.max);
        out += ",\"stddev\":" + format_double(s.stddev);
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "path,kind,value,count,min,max,stddev\n";
  for (const Sample& s : samples) {
    out += s.path;
    switch (s.kind) {
      case Kind::kCounter:
        append_format(out, ",counter,%llu,%llu,0,0,0\n",
                      static_cast<unsigned long long>(s.count),
                      static_cast<unsigned long long>(s.count));
        break;
      case Kind::kGauge:
        out += ",gauge," + format_double(s.value) + ",0,0,0,0\n";
        break;
      case Kind::kDistribution:
        out += ",distribution," + format_double(s.value) + ",";
        append_format(out, "%llu", static_cast<unsigned long long>(s.count));
        out += "," + format_double(s.min) + "," + format_double(s.max) +
               "," + format_double(s.stddev) + "\n";
        break;
    }
  }
  return out;
}

void Registry::counter(std::string path,
                       std::function<std::uint64_t()> probe) {
  Probe p;
  p.kind = Kind::kCounter;
  p.counter = std::move(probe);
  probes_[std::move(path)] = std::move(p);
  ++generation_;
}

void Registry::gauge(std::string path, std::function<double()> probe) {
  Probe p;
  p.kind = Kind::kGauge;
  p.gauge = std::move(probe);
  probes_[std::move(path)] = std::move(p);
  ++generation_;
}

void Registry::distribution(std::string path,
                            std::function<sim::OnlineStats()> probe) {
  Probe p;
  p.kind = Kind::kDistribution;
  p.distribution = std::move(probe);
  probes_[std::move(path)] = std::move(p);
  ++generation_;
}

Sample Registry::sample_probe(const std::string& path, const Probe& probe) {
  Sample s;
  s.path = path;
  s.kind = probe.kind;
  switch (probe.kind) {
    case Kind::kCounter:
      s.count = probe.counter();
      break;
    case Kind::kGauge:
      s.value = probe.gauge();
      break;
    case Kind::kDistribution: {
      const sim::OnlineStats stats = probe.distribution();
      s.count = stats.count();
      s.value = stats.mean();
      s.min = stats.min();
      s.max = stats.max();
      s.stddev = stats.stddev();
      break;
    }
  }
  return s;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.samples.reserve(probes_.size());
  for (const auto& [path, probe] : probes_) {
    snap.samples.push_back(sample_probe(path, probe));
  }
  return snap;
}

std::vector<Registry::Entry> Registry::select(
    const std::vector<std::string>& prefixes) const {
  std::vector<Entry> out;
  for (const auto& [path, probe] : probes_) {
    bool match = prefixes.empty();
    for (const std::string& prefix : prefixes) {
      if (path.compare(0, prefix.size(), prefix) == 0) {
        match = true;
        break;
      }
    }
    if (match) out.push_back({&path, &probe});
  }
  return out;
}

}  // namespace xgbe::obs
