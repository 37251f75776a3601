// tcpdump-style wire capture (§3.2: "tcpdump is commonly available and used
// for analyzing protocols at the wire level" — the paper used it alongside
// MAGNET to diagnose the window/MSS pathologies of §3.5.1).
//
// A Capture is a formatter over the observability trace: it owns an
// obs::TraceSink, arms it as its testbed's sink while attached to a link,
// keeps that link's wire events, and renders each as one tcpdump-like line.
// Frames lost to fault injection appear with a " ** dropped (<cause>)"
// suffix — the old wire tap never saw the verdict.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "link/link.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"

namespace xgbe::core {
class Testbed;
}

namespace xgbe::tools {

struct CaptureOptions {
  /// Keep at most this many lines (oldest dropped first), like `tcpdump -c`
  /// but ring-buffered.
  std::size_t max_lines = 10000;
  /// Only record wire events matching this predicate (null = everything).
  std::function<bool(const obs::TraceEvent&)> filter;
};

/// Formats one wire event as a tcpdump-like line, e.g.
///   "12.345678 1 > 2: Flags [S], seq 100021, win 65535, options [mss 8960,wscale 0,TS], length 0"
///   "12.345901 1 > 2: Flags [.], seq 100022:109970, ack 200025, win 62636, length 8948"
/// kWireDrop events gain a trailing " ** dropped (<cause>)".
std::string format_wire_event(const obs::TraceEvent& ev);

/// Formats one frame directly (builds the trace event internally).
std::string format_frame(sim::SimTime at, const net::Packet& pkt);

class Capture {
 public:
  explicit Capture(core::Testbed& testbed, const CaptureOptions& options = {});

  /// Arms this capture's sink as the testbed's trace sink, keeping only the
  /// wire events of `wire`. The sink it replaces gets no events until
  /// detach(). Classic mode only, like Testbed::set_trace_sink().
  void attach(link::Link& wire);
  /// Stops capturing and re-arms the sink attach() replaced.
  void detach(link::Link& wire);

  const std::deque<std::string>& lines() const { return lines_; }
  /// Wire events seen (transmissions and drops, before the filter).
  std::uint64_t frames_seen() const { return seen_; }
  std::uint64_t frames_recorded() const { return recorded_; }
  void clear() { lines_.clear(); }

  /// Convenience: concatenates all lines.
  std::string text() const;

  /// The underlying sink (e.g. to hand to attach_flight_recorder).
  obs::TraceSink& sink() { return sink_; }

 private:
  core::Testbed& tb_;
  CaptureOptions options_;
  obs::TraceSink sink_;
  const char* wire_ = nullptr;  // the captured link's name buffer
  obs::TraceSink* replaced_ = nullptr;
  std::deque<std::string> lines_;
  std::uint64_t seen_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace xgbe::tools
