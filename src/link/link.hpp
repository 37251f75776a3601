// Full-duplex point-to-point link (LAN fiber or WAN POS circuit).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "link/device.hpp"
#include "net/packet.hpp"
#include "obs/instruments.hpp"
#include "sim/block_fifo.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {
class Registry;
}

namespace xgbe::link {

enum class Framing : std::uint8_t {
  kEthernet,  // preamble + IFG + min-frame padding on the wire
  kPos        // packet-over-SONET: Ethernet framing replaced by PPP/HDLC
};

struct LinkSpec {
  double rate_bps = 10e9;  // 10GbE by default
  sim::SimTime propagation = sim::nsec(450);  // ~90 m of fiber
  Framing framing = Framing::kEthernet;
  /// For POS: payload fraction of the line rate left after SONET section/
  /// line/path overhead (87/90 columns minus path overhead ≈ 0.9596).
  double sonet_efficiency = 0.9596;
  /// Transmit-queue capacity per direction, bytes. 0 = unbounded (a host
  /// NIC never overruns its own wire; router circuits set a real limit).
  std::uint32_t queue_limit_bytes = 0;
  /// Opt-in per-direction observability: register_metrics() additionally
  /// exposes each direction's delivery/drop counters, backlog high-water
  /// marks, and the configured line rate (the "negotiated speed" a fleet
  /// doctor compares against its bundle). Off by default so pre-existing
  /// topologies keep byte-identical registry snapshots; the fabric builder
  /// turns it on.
  bool detail_metrics = false;
};

/// POS per-frame overhead: PPP/HDLC flag+address+control+protocol+FCS.
inline constexpr std::uint32_t kPosFrameOverheadBytes = 9;

/// Two independent serialization pipes (full duplex — 10GbE has no
/// half-duplex mode) with propagation delay, optional queue limit (tail
/// drop), and one fault injector per direction (set_fault_plan()).
///
/// A frame's serialization is a job without a continuation on its
/// direction's serializer Resource, so its completion is a clock mark, not
/// an event. transmit() returns that mark; the direction keeps each
/// serializing frame's mark and bytes in a FIFO and derives its backlog
/// from them, dropping the reached ones from the front before every read
/// or write. A caller that waits for the transmitter (an adapter whose DMA
/// stalled on a full FIFO) schedules at the mark itself.
///
/// Two construction modes:
///  - Classic: both directions schedule on one Simulator. Each direction
///    keeps its frames on the wire in a FIFO ring with one pending delivery
///    event: propagation is constant per direction, so arrivals are in
///    transmit order unless the fault layer delays a frame. Each frame
///    reserves its tie-break sequence at transmit time and the ring head is
///    scheduled with it, so deliveries pop in exactly the (time, seq) order
///    one event per frame would give. A frame arriving before the ring's
///    tail (a reorder or duplicate delay) gets its own event instead, which
///    carries the frame by value.
///  - Sharded: each direction lives on its transmitter's shard and takes a
///    channel id from the engine; it posts every delivery (same-shard ones
///    included, so results cannot depend on the partition) into the
///    engine's outbox, and the engine schedules it on the receiver's shard
///    at the window barrier.
///
/// All mutable per-frame state (counters, backlog, fault injector) is
/// per-direction, in both modes, so a direction's fault RNG is drawn in its
/// transmit order. A sharded link needs that: its two directions may live
/// on different shards, which run a window one after another, so a shared
/// RNG would be drawn in shard order, which depends on the partition. The
/// modes differ only in delivery (the ring against the engine's outbox).
///
/// Each direction reports into its transmitter's instrument bundle: every
/// frame offered to the wire traces kWireTx when it serializes, or kWireDrop
/// with the cause when it is lost.
class Link {
 public:
  /// `obs` is the instrument bundle both directions report into.
  Link(sim::Simulator& simulator, const LinkSpec& spec, std::string name,
       const obs::Instruments* obs = &obs::Instruments::none());

  /// Sharded-mode link between `shard_a` (the A side's shard) and `shard_b`.
  /// Takes one engine channel id per direction, a->b first — link creation
  /// order therefore defines the cross-shard merge order and must be
  /// identical across runs (it is: topology construction is code).
  /// `obs_a` is the a->b direction's bundle, `obs_b` the b->a one's.
  Link(sim::ShardedEngine& engine, std::size_t shard_a, std::size_t shard_b,
       const LinkSpec& spec, std::string name,
       const obs::Instruments* obs_a = &obs::Instruments::none(),
       const obs::Instruments* obs_b = &obs::Instruments::none());

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attaches endpoint devices. Either side may be set independently so
  /// switches can wire ports incrementally.
  void attach_a(NetDevice* a) { a_ = a; }
  void attach_b(NetDevice* b) { b_ = b; }
  NetDevice* a() const { return a_; }
  NetDevice* b() const { return b_; }

  /// Serializes `pkt` from side `from` toward the other side and returns
  /// its completion mark: the instant the transmitter frees, whether or not
  /// the frame is then lost on the wire. Simulator::reached() on it answers
  /// whether a completion event there would have run. A frame the queue
  /// limit refuses never serializes and returns no mark.
  std::optional<sim::Simulator::Mark> transmit(const NetDevice* from,
                                               const net::Packet& pkt);

  const LinkSpec& spec() const { return spec_; }
  const std::string& name() const { return name_; }
  std::uint64_t frames_delivered() const { return ab_.frames + ba_.frames; }
  std::uint64_t bytes_delivered() const { return ab_.bytes + ba_.bytes; }
  std::uint64_t drops_queue() const {
    return ab_.drops_queue + ba_.drops_queue;
  }

  // --- Per-direction accounting (from_a: the a->b direction) ----------------
  std::uint64_t frames_delivered(bool from_a) const {
    return (from_a ? ab_ : ba_).frames;
  }
  std::uint64_t bytes_delivered(bool from_a) const {
    return (from_a ? ab_ : ba_).bytes;
  }
  std::uint64_t drops_queue(bool from_a) const {
    return (from_a ? ab_ : ba_).drops_queue;
  }
  /// High-water mark of the direction's transmit backlog, bytes.
  std::uint32_t peak_backlog(bool from_a) const {
    return (from_a ? ab_ : ba_).peak_backlog;
  }

  // --- Fault injection ------------------------------------------------------
  /// Installs `plan` on both directions (the reverse direction gets a
  /// decorrelated seed so loss on data and ACK paths is independent).
  void set_fault_plan(const fault::FaultPlan& plan);

  /// Installs `plan` on one direction only (a->b when from_a); the other
  /// direction is left untouched. Directional plans are how the recovery
  /// tests black-hole ACKs without touching the data path.
  void set_fault_plan(const fault::FaultPlan& plan, bool from_a);

  /// The direction's one injector (a->b when from_a). transmit() consults
  /// it only while it is active: a plan is installed, or forced drops
  /// (inject_drops) are pending.
  fault::FaultInjector& fault_injector(bool from_a) {
    return (from_a ? ab_ : ba_).fault;
  }
  const fault::FaultInjector& fault_injector(bool from_a) const {
    return (from_a ? ab_ : ba_).fault;
  }

  /// Sum of both directions' counters, except `frames_seen`, which adds
  /// every frame the queue limit accepted (in either direction) to the
  /// frames the two injectors decided. A direction with an active plan
  /// therefore counts each of its frames twice. The registry snapshots and
  /// benchmark digests recorded so far pin that sum, so it stays until
  /// they are re-recorded.
  fault::FaultCounters fault_counters() const;

  /// Bytes occupying the wire for one frame under this link's framing.
  std::uint32_t occupancy_bytes(const net::Packet& pkt) const;

  /// Serialization time of one frame on this link.
  sim::SimTime serialization_time(const net::Packet& pkt) const;

  /// Effective data rate (bits/s available to frames).
  double effective_rate_bps() const;

  /// Backlog queued for transmission from the given side, bytes: the
  /// frames whose completion mark is not reached yet.
  std::uint32_t backlog(const NetDevice* from) const;

  /// Wire tap: invoked for every frame as it begins serialization (before
  /// any loss), with the direction. Some recovery tests attach here; the
  /// capture tool now rides the trace sink instead. Classic mode only — in
  /// sharded mode it would see the two directions' frames in shard order
  /// rather than time order.
  std::function<void(const net::Packet&, bool from_side_a)> tap;

  /// Registers this link's delivery and fault counters under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  /// A classic-mode frame on the wire: when it lands, the tie-break
  /// sequence reserved when it was transmitted, and where it goes.
  struct InFlight {
    sim::SimTime arrival = 0;
    std::uint64_t seq = 0;
    NetDevice* sink = nullptr;
    net::Packet pkt;
  };

  /// A frame on the serializer: its completion mark and its bytes.
  struct Serializing {
    sim::Simulator::Mark done;
    std::uint32_t bytes = 0;
  };

  struct Direction {
    Direction(sim::Simulator& simulator, const std::string& n,
              const obs::Instruments* instruments)
        : sim(&simulator), obs(instruments), pipe(simulator, n) {}

    /// Bytes whose completion mark is not reached yet. Drops the reached
    /// frames first, so it is exact at any read; the marks are reached in
    /// FIFO order (finish times never decrease).
    std::uint32_t backlog() const {
      while (!serializing.empty() &&
             sim->reached(serializing.front().done)) {
        backlog_bytes -= serializing.front().bytes;
        serializing.pop_front();
      }
      return backlog_bytes;
    }

    sim::Simulator* sim;  // the transmitter's shard
    const obs::Instruments* obs;  // the transmitter's shard's bundle
    sim::Resource pipe;
    // Frames not known to be off the serializer, in transmit order, and
    // their bytes. Mutable: reading the backlog drops the reached ones.
    mutable sim::BlockFifo<Serializing> serializing;
    mutable std::uint32_t backlog_bytes = 0;
    std::uint32_t peak_backlog = 0;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops_queue = 0;
    // Frames the queue limit accepted (see fault_counters()).
    std::uint64_t offered = 0;
    fault::FaultInjector fault;
    // Sharded mode: the engine channel this direction posts on, and the
    // shard it posts to (the receiver's).
    std::uint32_t channel = 0;
    std::size_t to_shard = 0;
    // Classic mode: frames on the wire in arrival order; only the head has
    // a pending event.
    sim::BlockFifo<InFlight> ring;
  };

  /// Classic mode: books `pkt` to reach `sink` at `arrival`, on the ring
  /// when it lands no earlier than the ring's tail, else as its own event.
  void deliver_later(Direction& dir, NetDevice* sink, sim::SimTime arrival,
                     const net::Packet& pkt);
  /// The ring's pending event: delivers the head, schedules the next one.
  void deliver_head(Direction& dir);
  /// Sharded mode: posts `pkt` to reach `sink` at `arrival`.
  void post(const Direction& dir, NetDevice* sink, sim::SimTime arrival,
            const net::Packet& pkt);

  LinkSpec spec_;
  std::string name_;
  sim::ShardedEngine* engine_ = nullptr;  // sharded mode only
  NetDevice* a_ = nullptr;
  NetDevice* b_ = nullptr;
  Direction ab_;
  Direction ba_;
};

}  // namespace xgbe::link
