#include "link/link.hpp"

#include <cassert>

#include "net/headers.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace xgbe::link {

namespace {

fault::FaultPlan legacy_plan(const LinkSpec& spec) {
  fault::FaultPlan plan;
  plan.seed = spec.loss_seed;
  plan.loss_rate = spec.loss_rate;
  return plan;
}

// Reverse-direction decorrelation constant, same as set_fault_plan().
constexpr std::uint64_t kReverseSeedMix = 0x9e3779b97f4a7c15ULL;

}  // namespace

Link::Link(sim::Simulator& simulator, const LinkSpec& spec, std::string name,
           const obs::Instruments* obs)
    : spec_(spec),
      name_(std::move(name)),
      ab_(simulator, name_ + "/ab", obs),
      ba_(simulator, name_ + "/ba", obs),
      script_(legacy_plan(spec)) {
  ab_.script = &script_;
  ba_.script = &script_;
}

Link::Link(sim::ShardedEngine& engine, std::size_t shard_a,
           std::size_t shard_b, const LinkSpec& spec, std::string name,
           const obs::Instruments* obs_a, const obs::Instruments* obs_b)
    : spec_(spec),
      name_(std::move(name)),
      engine_(&engine),
      ab_(engine.shard(shard_a), name_ + "/ab", obs_a),
      ba_(engine.shard(shard_b), name_ + "/ba", obs_b),
      script_(legacy_plan(spec)) {
  // The two directions run on different threads, so the legacy loss plan
  // splits into per-direction injectors with decorrelated seeds (mirroring
  // set_fault_plan's forward/reverse split). The shared script_ stays idle.
  fault::FaultPlan forward = legacy_plan(spec);
  fault::FaultPlan reverse = forward;
  reverse.seed = forward.seed ^ kReverseSeedMix;
  ab_.own_script.set_plan(forward);
  ba_.own_script.set_plan(reverse);
  ab_.script = &ab_.own_script;
  ba_.script = &ba_.own_script;
  // Every delivery — same-shard ones included, so results cannot depend on
  // where hosts landed — is posted for the engine to commit at the barrier.
  // The destination of a->b traffic is the B side's shard (where ba_
  // transmits from) and vice versa.
  ab_.channel = engine.add_channel();
  ba_.channel = engine.add_channel();
  ab_.from_shard = ba_.to_shard = shard_a;
  ba_.from_shard = ab_.to_shard = shard_b;
}

void Link::set_fault_plan(const fault::FaultPlan& plan) {
  fault_ab_.set_plan(plan);
  fault::FaultPlan reverse = plan;
  reverse.seed = plan.seed ^ kReverseSeedMix;
  fault_ba_.set_plan(reverse);
}

void Link::set_fault_plan(const fault::FaultPlan& plan, bool from_a) {
  (from_a ? fault_ab_ : fault_ba_).set_plan(plan);
}

fault::FaultCounters Link::fault_counters() const {
  fault::FaultCounters total = script_.counters();
  total += ab_.own_script.counters();
  total += ba_.own_script.counters();
  total += fault_ab_.counters();
  total += fault_ba_.counters();
  return total;
}

std::uint32_t Link::occupancy_bytes(const net::Packet& pkt) const {
  if (spec_.framing == Framing::kEthernet) return pkt.wire_bytes();
  // POS: the IP packet is re-framed in PPP/HDLC; strip the Ethernet header
  // and CRC, add the POS overhead.
  const std::uint32_t eth_overhead =
      net::kEthHeaderBytes + net::kEthCrcBytes;
  const std::uint32_t ip_bytes = pkt.frame_bytes > eth_overhead
                                     ? pkt.frame_bytes - eth_overhead
                                     : pkt.frame_bytes;
  return ip_bytes + kPosFrameOverheadBytes;
}

double Link::effective_rate_bps() const {
  return spec_.framing == Framing::kPos
             ? spec_.rate_bps * spec_.sonet_efficiency
             : spec_.rate_bps;
}

sim::SimTime Link::serialization_time(const net::Packet& pkt) const {
  return sim::transfer_time(occupancy_bytes(pkt), effective_rate_bps());
}

std::uint32_t Link::backlog(const NetDevice* from) const {
  return from == a_ ? ab_.backlog() : ba_.backlog();
}

std::optional<sim::Simulator::Mark> Link::transmit(const NetDevice* from,
                                                   const net::Packet& pkt) {
  assert(from == a_ || from == b_);
  const bool forward = (from == a_);
  Direction& dir = forward ? ab_ : ba_;
  NetDevice* sink = forward ? b_ : a_;
  sim::Simulator& sim = *dir.sim;

  const std::uint32_t backlog = dir.backlog();
  if (spec_.queue_limit_bytes != 0 &&
      backlog + pkt.frame_bytes > spec_.queue_limit_bytes) {
    ++dir.drops_queue;
    dir.obs->drop(obs::EventType::kWireDrop, sim.now(), pkt, name_.c_str(),
                  "queue-full");
    return std::nullopt;
  }

  if (tap) tap(pkt, forward);
  dir.backlog_bytes = backlog + pkt.frame_bytes;
  if (dir.backlog_bytes > dir.peak_backlog) {
    dir.peak_backlog = dir.backlog_bytes;
  }
  const sim::Simulator::Mark done =
      dir.pipe.submit_mark(serialization_time(pkt));
  dir.serializing.push_back(Serializing{done, pkt.frame_bytes});

  // Scripted/legacy injector first (forced drops + LinkSpec loss), then the
  // direction's own plan. A frame the script loses never reaches the
  // directional injector — it is already off the wire. In classic mode both
  // directions share one script RNG in transmit order; sharded mode uses
  // per-direction scripts so the draw sequence cannot depend on thread
  // interleaving.
  const sim::SimTime now = sim.now();
  fault::FaultDecision verdict = dir.script->decide(pkt, now);
  if (!verdict.drop) {
    fault::FaultInjector& dir_fault = forward ? fault_ab_ : fault_ba_;
    if (dir_fault.active()) {
      const fault::FaultDecision extra = dir_fault.decide(pkt, now);
      if (extra.drop) {
        verdict = extra;
      } else {
        verdict.corrupt = verdict.corrupt || extra.corrupt;
        verdict.duplicate = extra.duplicate;
        verdict.extra_delay = extra.extra_delay;
        verdict.duplicate_delay = extra.duplicate_delay;
      }
    }
  }
  // One trace event per frame, emitted after the verdict so drops carry
  // their cause. The sink consumes no randomness, so emission position
  // cannot perturb the fault RNG sequence.
  if (verdict.drop) {
    dir.obs->drop(obs::EventType::kWireDrop, now, pkt, name_.c_str(),
                  fault::cause_name(verdict.cause));
    return done;
  }
  if (dir.obs->trace) {
    dir.obs->trace->record_packet(obs::EventType::kWireTx, now, pkt,
                                  name_.c_str());
  }
  // The wire stage opens here and accumulates per hop (pipe queueing +
  // serialization + propagation all land in it).
  if (dir.obs->spans) dir.obs->spans->mark(pkt, obs::Stage::kWire, now);

  if (sink != nullptr) {
    ++dir.frames;
    dir.bytes += pkt.frame_bytes;
    net::Packet out = pkt;
    if (verdict.corrupt) out.corrupted = true;
    const sim::SimTime arrival =
        done.time + spec_.propagation + verdict.extra_delay;
    if (engine_ != nullptr) {
      post(dir, sink, arrival, out);
      if (verdict.duplicate) {
        post(dir, sink, arrival + verdict.duplicate_delay, out);
      }
    } else {
      deliver_later(dir, sink, arrival, out);
      if (verdict.duplicate) {
        deliver_later(dir, sink, arrival + verdict.duplicate_delay, out);
      }
    }
  }
  return done;
}

void Link::deliver_later(Direction& dir, NetDevice* sink,
                         sim::SimTime arrival, const net::Packet& pkt) {
  sim::Simulator& sim = *dir.sim;
  // Taken now, where a per-frame event would have been scheduled, so the
  // delivery keeps that event's place among equal timestamps.
  const std::uint64_t seq = sim.reserve_seq();
  if (dir.ring.empty() || arrival >= dir.ring.back().arrival) {
    const bool idle = dir.ring.empty();
    dir.ring.push_back(InFlight{arrival, seq, sink, pkt});
    if (idle) {
      sim.schedule_reserved(arrival, seq,
                            [this, &dir]() { deliver_head(dir); });
    }
    return;
  }
  // Lands before the ring's tail (the fault layer delayed an earlier
  // frame): the ring would misorder it, so it keeps its own event.
  sim.schedule_reserved(arrival, seq,
                        [sink, pkt]() { sink->deliver(pkt); });
}

void Link::deliver_head(Direction& dir) {
  // Ring blocks never move, so the head stays valid even if delivery
  // transmits on this link again; it leaves the ring afterwards.
  const InFlight& head = dir.ring.front();
  head.sink->deliver(head.pkt);
  dir.ring.pop_front();
  if (!dir.ring.empty()) {
    const InFlight& next = dir.ring.front();
    dir.sim->schedule_reserved(next.arrival, next.seq,
                               [this, &dir]() { deliver_head(dir); });
  }
}

void Link::post(const Direction& dir, NetDevice* sink, sim::SimTime arrival,
                const net::Packet& pkt) {
  engine_->post(dir.from_shard, dir.channel, dir.to_shard, arrival,
                [sink, pkt]() { sink->deliver(pkt); });
}

void Link::register_metrics(obs::Registry& reg,
                            const std::string& prefix) const {
  reg.counter(prefix + "/frames_delivered",
              [this] { return frames_delivered(); });
  reg.counter(prefix + "/bytes_delivered",
              [this] { return bytes_delivered(); });
  reg.counter(prefix + "/drops_queue", [this] { return drops_queue(); });
  // Aggregate of the scripted injector and both directional injectors.
  auto field = [&](const char* name,
                   std::uint64_t fault::FaultCounters::* member) {
    reg.counter(prefix + "/fault/" + name,
                [this, member] { return fault_counters().*member; });
  };
  field("frames_seen", &fault::FaultCounters::frames_seen);
  field("drops_forced", &fault::FaultCounters::drops_forced);
  field("drops_uniform", &fault::FaultCounters::drops_uniform);
  field("drops_burst", &fault::FaultCounters::drops_burst);
  field("drops_carrier", &fault::FaultCounters::drops_carrier);
  // Only plans that use the handshake-loss family expose its counter:
  // pre-existing plans keep byte-identical registry snapshots.
  if (fault_injector(true).plan().handshake_loss_rate > 0.0 ||
      fault_injector(false).plan().handshake_loss_rate > 0.0) {
    field("drops_handshake", &fault::FaultCounters::drops_handshake);
  }
  field("corruptions", &fault::FaultCounters::corruptions);
  field("duplicates", &fault::FaultCounters::duplicates);
  field("reorders", &fault::FaultCounters::reorders);
  field("flaps", &fault::FaultCounters::flaps);
  if (!spec_.detail_metrics) return;
  // Per-direction split plus the configured line rate: the fleet doctor's
  // inputs for direction attribution and negotiated-speed comparison.
  reg.gauge(prefix + "/rate_bps", [this] { return spec_.rate_bps; });
  const auto direction = [&](const char* tag, const Direction& dir) {
    const std::string p = prefix + "/" + tag;
    reg.counter(p + "/frames_delivered", [&dir] { return dir.frames; });
    reg.counter(p + "/bytes_delivered", [&dir] { return dir.bytes; });
    reg.counter(p + "/drops_queue", [&dir] { return dir.drops_queue; });
    reg.gauge(p + "/peak_backlog_bytes", [&dir] {
      return static_cast<double>(dir.peak_backlog);
    });
  };
  direction("ab", ab_);
  direction("ba", ba_);
}

}  // namespace xgbe::link
