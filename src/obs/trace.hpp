// Typed event trace: the observability layer's timeline.
//
// A TraceSink is a ring-buffer flight recorder (plus an optional full JSONL
// stream) fed from the same choke points tcpdump and MAGNET already tap:
// segment tx/rx/drop, RTO and fast retransmit, window updates, descriptor-
// ring stalls and refills, and fault-injection decisions. Components reach
// it through their shard's obs::Instruments bundle, whose `trace` pointer
// defaults to null; every emission site is gated on that pointer, consumes
// no randomness, and schedules no events, so an unarmed trace leaves the
// simulation bit-identical to a build with no trace at all.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {
class Watchdog;
}

namespace xgbe::obs {

enum class EventType : std::uint8_t {
  kWireTx,          // frame began serialization onto a link
  kWireDrop,        // frame lost on the path (queue tail drop, fault, ...)
  kSegTx,           // TCP segment handed to the kernel TX path
  kSegRx,           // TCP segment accepted by the receiver
  kSegDrop,         // segment discarded in a host (ring, csum, sockbuf, ...)
  kRto,             // retransmission timeout fired
  kFastRetransmit,  // third duplicate ACK triggered fast retransmit
  kWindowUpdate,    // receiver sent a window-update ACK
  kRingStall,       // descriptor ring stopped being replenished / posted
  kRingRefill,      // deferred ring slots caught up
  kFault,           // fault injector made a non-drop decision worth noting
  kRst,             // RST segment generated (abort, refusal, stray segment)
  kListenDrop       // listener refused a SYN (queue or backlog overflow)
};

/// Short stable name ("seg-tx", "ring-stall", ...) for formatting.
const char* event_name(EventType type);

// TraceEvent::flags bits (TCP header flags plus trace annotations).
inline constexpr std::uint16_t kFlagSyn = 1u << 0;
inline constexpr std::uint16_t kFlagFin = 1u << 1;
inline constexpr std::uint16_t kFlagAck = 1u << 2;
inline constexpr std::uint16_t kFlagPush = 1u << 3;
inline constexpr std::uint16_t kFlagRetransmit = 1u << 4;
inline constexpr std::uint16_t kFlagCorrupt = 1u << 5;
inline constexpr std::uint16_t kFlagTimestamps = 1u << 6;
inline constexpr std::uint16_t kFlagWscale = 1u << 7;
inline constexpr std::uint16_t kFlagRst = 1u << 8;

/// One trace record. Plain value, fixed size, no allocation: cheap enough
/// to emit on packet paths when a sink is armed. `where` and `detail` must
/// point at storage that outlives the sink's use of the event (string
/// literals, or a component's own name buffer).
struct TraceEvent {
  sim::SimTime at = 0;
  EventType type = EventType::kWireTx;
  std::uint8_t proto = 0;  // static_cast of net::Protocol
  std::uint16_t flags = 0;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  net::FlowId flow = 0;
  net::Seq seq = 0;
  net::Seq ack = 0;
  std::uint32_t len = 0;       // payload bytes (or a count for ring events)
  std::uint32_t wire_len = 0;  // full frame bytes on the wire
  std::uint32_t window = 0;
  std::uint16_t mss = 0;          // SYN option (0 = absent)
  const char* where = "";         // reporting component
  const char* detail = "";        // cause / annotation
};

/// Builds a TraceEvent from a packet's metadata (flags, seq/ack, window,
/// SYN options), stamped `at`.
TraceEvent packet_event(EventType type, sim::SimTime at,
                        const net::Packet& pkt, const char* where = "",
                        const char* detail = "");

/// printf-append with the snprintf return value honoured: the output string
/// always receives the complete formatted text, falling back to a heap
/// buffer when the stack buffer would truncate.
void append_format(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Ring-buffer flight recorder. Single-threaded, like the simulation that
/// feeds it: one sink belongs to one simulator.
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 1024);

  /// Only record events matching this predicate (null = everything).
  std::function<bool(const TraceEvent&)> filter;
  /// Invoked after an event is stored (tools::Capture formats lines here).
  std::function<void(const TraceEvent&)> on_record;

  void record(const TraceEvent& ev);
  void record_packet(EventType type, sim::SimTime at, const net::Packet& pkt,
                     const char* where = "", const char* detail = "") {
    record(packet_event(type, at, pkt, where, detail));
  }

  /// Events offered to the sink (before the filter).
  std::uint64_t offered() const { return offered_; }
  /// Events stored (after the filter); may exceed capacity() — older
  /// entries were overwritten.
  std::uint64_t recorded() const { return recorded_; }
  /// Events currently retained in the ring.
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// i = 0 is the oldest retained event.
  const TraceEvent& event(std::size_t i) const;
  /// Up to the last `n` events, oldest first.
  std::vector<TraceEvent> tail(std::size_t n) const;
  void clear();

  /// Streams every recorded event as one JSON line (null disables). The
  /// stream sees events after the filter, like the ring.
  void stream_to(std::ostream* os) { stream_ = os; }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // ring slot the next event lands in
  std::size_t size_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t recorded_ = 0;
  std::ostream* stream_ = nullptr;
};

/// Compact one-line rendering, e.g.
///   "[0.001234] seg-tx 1>2 flow1 seq=100021 len=8948 ack=200025 win=62636"
std::string format_event(const TraceEvent& ev);

/// The last `n` events, formatted and joined with " | " (empty string for
/// an empty sink). This is what a watchdog autopsy appends.
std::string format_tail(const TraceSink& sink, std::size_t n);

/// One event as a JSON object (single line, no trailing newline).
std::string to_jsonl(const TraceEvent& ev);

/// Registers the sink's tail as a watchdog trip context: the autopsy line
/// gains "flight-recorder: <last n events>". The sink must outlive the
/// watchdog. Lives here (not in sim) so sim keeps zero obs dependencies.
void attach_flight_recorder(sim::Watchdog& dog, const TraceSink& sink,
                            std::size_t events = 8);

/// Merges per-shard sinks into one partition-invariant timeline. Events are
/// stably sorted by (timestamp, then every payload field): two runs of the
/// same workload on different shard counts produce the same merged vector
/// even though each records into a different set of sinks. Only the retained
/// ring contents merge — size the sinks to hold the whole run when the
/// merged view must be complete.
std::vector<TraceEvent> merge_sorted(
    const std::vector<const TraceSink*>& sinks);

/// FNV-1a over the merged events' deterministic fields (`where`/`detail`
/// pointers are hashed by content, not address). Equal fingerprints ⇔
/// equal timelines, which is how the determinism suite compares shard
/// counts without storing golden traces.
std::uint64_t fingerprint(const std::vector<TraceEvent>& events);

}  // namespace xgbe::obs
