// The instruments a model component reports into: one bundle per shard,
// owned by core::Testbed and handed to each component it builds (a link
// gets one per direction, its transmitter's). Emission sites read the
// bundle's pointers; null is the unarmed path. Emission consumes no
// randomness and schedules no events, so armed runs are bit-identical.
#pragma once

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace xgbe::obs {

class SpanProfiler;
class TraceSink;
enum class EventType : std::uint8_t;

struct Instruments {
  TraceSink* trace = nullptr;
  SpanProfiler* spans = nullptr;

  /// A frame is lost at `where` for `why`: records a `type` event when a
  /// sink is armed and aborts the frame's span journey when a profiler is.
  void drop(EventType type, sim::SimTime at, const net::Packet& pkt,
            const char* where, const char* why) const;

  /// One shared disarmed bundle, the default outside a testbed.
  static const Instruments& none();
};

}  // namespace xgbe::obs
