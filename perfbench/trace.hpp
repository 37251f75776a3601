// Bench-side spans around each call into a simulator layer.
//
// A span records a name, host start and end (thread CPU seconds), its
// parent span and the unit it belongs to. Spans are kept in memory and
// written out when the run ends. With no tracer installed a Scope costs
// one pointer test, so the same workload code serves the untraced run that
// the end-to-end metrics come from.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host time of the calling thread: its CPU time, in seconds. Every
/// measured unit runs on one thread, and CPU time leaves out the time the
/// thread sits descheduled behind other load on the machine, which wall
/// time would add to the figure as noise.
inline double host_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall-clock seconds (steady clock), for run length and thread pools.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the tracer's span list; -1 for a root
  int unit = -1;
};

class Tracer {
 public:
  /// The tracer spans record into; null when tracing is off.
  static Tracer*& active() {
    static Tracer* tracer = nullptr;
    return tracer;
  }

  int open(const char* name) {
    spans_.push_back(Span{name, host_now(), 0.0, current_, unit_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = host_now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void set_unit(int unit) { unit_ = unit; }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    current_ = -1;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
  int unit_ = -1;
};

/// Writes spans as JSON lines, one span per line; false on I/O failure.
inline bool write_spans(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Span& s : spans) {
    ok = std::fprintf(f,
                      "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                      "\"parent\":%d,\"unit\":%d}\n",
                      s.name, s.start, s.end, s.parent, s.unit) > 0 &&
         ok;
  }
  return std::fclose(f) == 0 && ok;
}

/// Opens a span for the enclosing block when a tracer is active.
class Scope {
 public:
  explicit Scope(const char* name)
      : id_(Tracer::active() != nullptr ? Tracer::active()->open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) Tracer::active()->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

/// Self time per span name: each span's duration minus the durations of
/// its direct children, summed over spans of that name.
inline std::map<std::string, double> self_times(
    const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += spans[i].end - spans[i].start - child[i];
  }
  return self;
}

}  // namespace perfbench
