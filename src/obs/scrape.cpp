#include "obs/scrape.hpp"

#include <cassert>
#include <cmath>

#include "obs/trace.hpp"

namespace xgbe::obs {

TimeSeriesStore::TimeSeriesStore(std::size_t max_points)
    : max_points_(max_points < 1 ? 1 : max_points) {}

TimeSeriesStore::Column TimeSeriesStore::column(const std::string& series,
                                                const char* unit) {
  const auto [it, created] = series_.try_emplace(series);
  if (created) it->second.unit = unit;
  return Column(&it->second);
}

void TimeSeriesStore::append(const std::string& series, sim::SimTime at,
                             std::int64_t value, const char* unit) {
  append(column(series, unit), at, value);
}

void TimeSeriesStore::append(Column column, sim::SimTime at,
                             std::int64_t value) {
  Series& s = *column.series_;
  if (!s.any) {
    s.base_at = at;
    s.base_value = value;
    s.last_at = at;
    s.last_value = value;
    s.any = true;
    return;
  }
  if (max_points_ == 1) {
    s.base_at = at;
    s.base_value = value;
    s.last_at = at;
    s.last_value = value;
    ++s.evicted;
    return;
  }
  if (s.deltas.size() + 1 >= max_points_) {
    // Ring full: fold the oldest delta into the base. The retained tail
    // still decodes exactly; only the evicted head is forgotten.
    s.base_at += s.deltas.front().first;
    s.base_value += s.deltas.front().second;
    s.deltas.pop_front();
    ++s.evicted;
  }
  assert(at >= s.last_at && "time-series appends must be time-monotone");
  s.deltas.emplace_back(at - s.last_at, value - s.last_value);
  s.last_at = at;
  s.last_value = value;
}

std::uint64_t TimeSeriesStore::total_points() const {
  std::uint64_t total = 0;
  for (const auto& [name, s] : series_) {
    total += s.any ? 1 + s.deltas.size() : 0;
  }
  return total;
}

std::vector<std::string> TimeSeriesStore::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

std::vector<SeriesPoint> TimeSeriesStore::points(
    const std::string& series) const {
  std::vector<SeriesPoint> out;
  const auto it = series_.find(series);
  if (it == series_.end() || !it->second.any) return out;
  const Series& s = it->second;
  out.reserve(1 + s.deltas.size());
  SeriesPoint p{s.base_at, s.base_value};
  out.push_back(p);
  for (const auto& [dt, dv] : s.deltas) {
    p.at += dt;
    p.value += dv;
    out.push_back(p);
  }
  return out;
}

std::uint64_t TimeSeriesStore::evicted(const std::string& series) const {
  const auto it = series_.find(series);
  return it == series_.end() ? 0 : it->second.evicted;
}

const std::string& TimeSeriesStore::unit(const std::string& series) const {
  static const std::string kEmpty;
  const auto it = series_.find(series);
  return it == series_.end() ? kEmpty : it->second.unit;
}

std::string TimeSeriesStore::to_csv() const {
  std::string out = "series,unit,at_ps,value\n";
  for (const auto& [name, s] : series_) {
    for (const SeriesPoint& p : points(name)) {
      out += name;
      out += ',';
      out += s.unit;
      append_format(out, ",%lld,%lld\n", static_cast<long long>(p.at),
                    static_cast<long long>(p.value));
    }
  }
  return out;
}

std::string TimeSeriesStore::to_jsonl() const {
  std::string out;
  for (const auto& [name, s] : series_) {
    for (const SeriesPoint& p : points(name)) {
      out += "{\"series\":\"" + json_escape(name) + "\",\"unit\":\"" +
             json_escape(s.unit) + "\"";
      append_format(out, ",\"at_ps\":%lld,\"value\":%lld}\n",
                    static_cast<long long>(p.at),
                    static_cast<long long>(p.value));
    }
  }
  return out;
}

std::string TimeSeriesStore::series_json() const {
  std::string out = "{\"series\":[";
  bool first_series = true;
  for (const auto& [name, s] : series_) {
    if (!first_series) out += ',';
    first_series = false;
    out += "{\"path\":\"" + json_escape(name) + "\",\"unit\":\"" +
           json_escape(s.unit) + "\"";
    append_format(out, ",\"evicted\":%llu,\"points\":[",
                  static_cast<unsigned long long>(s.evicted));
    bool first_point = true;
    for (const SeriesPoint& p : points(name)) {
      if (!first_point) out += ',';
      first_point = false;
      append_format(out, "[%lld,%lld]", static_cast<long long>(p.at),
                    static_cast<long long>(p.value));
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::uint64_t TimeSeriesStore::fingerprint() const {
  // FNV-1a, same constants as Fabric::fingerprint.
  std::uint64_t hash = 1469598103934665603ULL;
  for (char c : to_csv()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

MetricScraper::MetricScraper(const Registry& registry, ScrapeOptions options)
    : registry_(registry), opt_(std::move(options)), store_(opt_.max_points) {
  if (opt_.period < 1) opt_.period = 1;
  due_ = opt_.period;
}

void MetricScraper::rebuild_plan() {
  plan_.clear();
  for (const Registry::Entry& e : registry_.select(opt_.prefixes)) {
    const char* unit = e.probe->kind == Kind::kGauge ? "milli" : "count";
    plan_.push_back({e.probe, store_.column(*e.path, unit)});
  }
  plan_generation_ = registry_.generation();
}

void MetricScraper::advance(sim::SimTime at) {
  if (plan_generation_ != registry_.generation()) rebuild_plan();
  for (const Planned& p : plan_) {
    std::int64_t value = 0;
    switch (p.probe->kind) {
      case Kind::kCounter:
        value = static_cast<std::int64_t>(p.probe->counter());
        break;
      case Kind::kDistribution:
        value = static_cast<std::int64_t>(p.probe->distribution().count());
        break;
      case Kind::kGauge:
        value = std::llround(p.probe->gauge() * 1000.0);
        break;
    }
    store_.append(p.column, at, value);
  }
  ++scrapes_;
  due_ = at + opt_.period;
}

std::string MetricScraper::scrape_json() const {
  std::string out;
  append_format(out, "{\"period_ps\":%lld,\"scrapes\":%llu,",
                static_cast<long long>(opt_.period),
                static_cast<unsigned long long>(scrapes_));
  const std::string series = store_.series_json();
  // series_json() is {"series":[...]}; splice its body into this object.
  out += series.substr(1, series.size() - 2);
  out += '}';
  return out;
}

}  // namespace xgbe::obs
