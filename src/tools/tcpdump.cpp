#include "tools/tcpdump.hpp"

#include "core/testbed.hpp"

namespace xgbe::tools {

std::string format_wire_event(const obs::TraceEvent& ev) {
  std::string line;
  // node.flow > node.flow mirrors tcpdump's host.port notation: the flow id
  // plays the port pair, so the connection 4-tuple (src, dst, flow) is
  // readable off every line.
  obs::append_format(line, "%12.6f %u.%u > %u.%u: ", sim::to_seconds(ev.at),
                     ev.src, ev.flow, ev.dst, ev.flow);

  const auto proto = static_cast<net::Protocol>(ev.proto);
  if (proto == net::Protocol::kUdp) {
    obs::append_format(line, "UDP, length %u", ev.len);
  } else if (proto == net::Protocol::kRaw) {
    obs::append_format(line, "RAW, length %u", ev.wire_len);
  } else {
    const bool syn = (ev.flags & obs::kFlagSyn) != 0;
    const bool fin = (ev.flags & obs::kFlagFin) != 0;
    const bool rst = (ev.flags & obs::kFlagRst) != 0;
    const bool ack = (ev.flags & obs::kFlagAck) != 0;
    std::string flags;
    if (syn) flags += 'S';
    if (fin) flags += 'F';
    if (rst) flags += 'R';
    if (ack && !syn && !fin && !rst && ev.len == 0) {
      flags += '.';
    } else if (ack && (syn || fin || rst)) {
      flags += '.';
    }
    if ((ev.flags & obs::kFlagPush) != 0) flags += 'P';
    if (flags.empty()) flags = ".";
    line += "Flags [" + flags + "], ";

    if (ev.len > 0) {
      obs::append_format(line, "seq %u:%u, ", ev.seq, ev.seq + ev.len);
    } else {
      obs::append_format(line, "seq %u, ", ev.seq);
    }
    if (ack) obs::append_format(line, "ack %u, ", ev.ack);
    obs::append_format(line, "win %u, ", ev.window);
    if (syn) {
      obs::append_format(line, "options [mss %u%s%s], ",
                         static_cast<unsigned>(ev.mss),
                         (ev.flags & obs::kFlagWscale) != 0 ? ",wscale" : "",
                         (ev.flags & obs::kFlagTimestamps) != 0 ? ",TS" : "");
    } else if ((ev.flags & obs::kFlagTimestamps) != 0) {
      line += "options [TS], ";
    }
    if ((ev.flags & obs::kFlagRetransmit) != 0) line += "retransmission, ";
    if ((ev.flags & obs::kFlagCorrupt) != 0) line += "corrupt, ";
    obs::append_format(line, "length %u", ev.len);
  }

  if (ev.type == obs::EventType::kWireDrop) {
    obs::append_format(line, " ** dropped (%s)",
                       ev.detail != nullptr && *ev.detail != '\0'
                           ? ev.detail
                           : "unknown");
  }
  return line;
}

std::string format_frame(sim::SimTime at, const net::Packet& pkt) {
  return format_wire_event(
      obs::packet_event(obs::EventType::kWireTx, at, pkt));
}

std::string fault_summary(const link::Link& wire) {
  const fault::FaultCounters c = wire.fault_counters();
  std::string line = wire.name() + ": " + fault::describe(c);
  if (wire.drops_queue() > 0) {
    line += ", " + std::to_string(wire.drops_queue()) + " queue drops";
  }
  const fault::FaultPlan& ab = wire.fault_injector(true).plan();
  if (ab.active()) line += " [plan: " + fault::describe(ab) + "]";
  return line;
}

Capture::Capture(core::Testbed& testbed, const CaptureOptions& options)
    : tb_(testbed), options_(options), sink_(/*capacity=*/1) {
  sink_.filter = [this](const obs::TraceEvent& ev) {
    // A link reports its wire events with its own name buffer as `where`.
    if ((ev.type != obs::EventType::kWireTx &&
         ev.type != obs::EventType::kWireDrop) ||
        ev.where != wire_) {
      return false;
    }
    ++seen_;
    if (options_.filter && !options_.filter(ev)) return false;
    ++recorded_;
    return true;
  };
  sink_.on_record = [this](const obs::TraceEvent& ev) {
    lines_.push_back(format_wire_event(ev));
    while (lines_.size() > options_.max_lines) lines_.pop_front();
  };
}

void Capture::attach(link::Link& wire) {
  wire_ = wire.name().c_str();
  replaced_ = tb_.trace_sink();
  tb_.set_trace_sink(&sink_);
}

void Capture::detach(link::Link& /*wire*/) {
  tb_.set_trace_sink(replaced_);
  wire_ = nullptr;
}

std::string Capture::text() const {
  std::string out;
  for (const auto& l : lines_) {
    out += l;
    out += '\n';
  }
  return out;
}

}  // namespace xgbe::tools
