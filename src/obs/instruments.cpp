#include "obs/instruments.hpp"

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace xgbe::obs {

void Instruments::drop(EventType type, sim::SimTime at, const net::Packet& pkt,
                       const char* where, const char* why) const {
  if (trace) trace->record_packet(type, at, pkt, where, why);
  if (spans) spans->abort(pkt);
}

const Instruments& Instruments::none() {
  static const Instruments disarmed;
  return disarmed;
}

}  // namespace xgbe::obs
