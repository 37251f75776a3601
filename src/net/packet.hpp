// Simulated packet representation.
//
// Packets carry sizes and protocol metadata, never payload bytes; the
// simulator models where time goes, not what the data says.
#pragma once

#include <cstdint>

#include "net/headers.hpp"
#include "net/seq.hpp"
#include "sim/time.hpp"

namespace xgbe::net {

/// Network-wide node address (host or router port). Assigned by the testbed.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Identifies a transport flow (connection) within the simulation.
using FlowId = std::uint32_t;

enum class Protocol : std::uint8_t { kTcp, kUdp, kRaw };

/// TCP flag bits (subset the simulator uses).
struct TcpFlags {
  bool syn = false;
  bool fin = false;
  bool ack = false;
  bool rst = false;
  /// ECN echo: receiver tells the sender it saw a CE-marked frame.
  bool ece = false;
  /// Congestion-window-reduced: sender acknowledges the ECE echo.
  bool cwr = false;
};

/// True for segments that belong to connection setup/teardown rather than
/// the data path (SYN, FIN, RST). The fault layer's handshake-phase plans
/// target exactly these.
inline bool is_lifecycle_segment(const TcpFlags& flags) {
  return flags.syn || flags.fin || flags.rst;
}

/// TCP-specific segment metadata.
struct TcpMeta {
  Seq seq = 0;           // first payload byte
  Seq ack = 0;           // cumulative ack (valid if flags.ack)
  TcpFlags flags;
  std::uint32_t window = 0;      // advertised receive window, bytes (scaled)
  bool timestamps = false;       // RFC 1323 timestamp option present
  sim::SimTime ts_val = 0;       // our timestamp clock (ps granularity here)
  sim::SimTime ts_ecr = 0;       // echoed timestamp
  std::uint16_t mss_option = 0;  // SYN-only MSS option (0 = absent)
  std::uint8_t wscale_option = 0;   // SYN-only window-scale shift
  bool wscale_present = false;      // SYN-only: window scaling offered
  bool is_retransmit = false;    // instrumentation only
  /// Non-zero on a TSO super-segment: the adapter re-segments the payload
  /// into frames of at most this many payload bytes (§3.3.2 "Large Send").
  std::uint32_t tso_mss = 0;
  bool push = false;  // PSH: end of an application write
};

/// A frame in flight. The struct is a plain value; copies are cheap.
struct Packet {
  Protocol protocol = Protocol::kRaw;
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t frame_bytes = 0;    // eth header .. CRC inclusive
  std::uint32_t payload_bytes = 0;  // transport payload only
  TcpMeta tcp;                      // valid when protocol == kTcp
  /// Payload damaged on the I/O/memory path AFTER any adapter-side
  /// checksum verification (§3.5.3: "the adapter must still transfer data
  /// across the memory and I/O buses, introducing a potential source of
  /// data errors, errors that a TOE has no way to detect or correct").
  bool corrupted = false;
  /// ECN codepoints (RFC 3168): `ect` set by an ECN-capable sender on data
  /// frames, `ce` stamped by an AQM-enabled switch instead of dropping.
  bool ect = false;
  bool ce = false;

  /// Wire occupancy (frame + preamble + IFG, min-frame enforced).
  std::uint32_t wire_bytes() const {
    return wire_occupancy_bytes(frame_bytes);
  }
};

/// Builds a bare (payload-less) TCP control segment frame size.
constexpr std::uint32_t tcp_ack_frame_bytes(bool timestamps) {
  return tcp_frame_bytes(0, timestamps);
}

}  // namespace xgbe::net
