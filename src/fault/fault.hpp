// Deterministic fault injection for links, switches, and adapters.
//
// A FaultPlan composes scripted and stochastic path misbehaviour — uniform
// random loss, Gilbert–Elliott bursty loss, payload corruption (exercising
// the §3.5.3 checksum path), duplication, reordering via bounded extra
// delay, and timed carrier flaps. A FaultInjector is the runtime a device
// hosts: it draws every random decision from one sim::Rng seeded by the
// plan, so a given (plan, traffic) pair reproduces the exact same fault
// sequence on every run. Transcontinental-transfer measurements show bursty
// loss and reordering — not uniform drops — dominate real WAN paths, which
// is why the burst model is first-class here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace xgbe::fault {

/// Why a frame was dropped (per-cause counters and capture annotations).
enum class DropCause : std::uint8_t {
  kNone,
  kForced,     // scripted inject_drops()
  kUniform,    // independent per-frame loss
  kBurst,      // Gilbert–Elliott bad-state loss
  kCarrier,    // link flap: carrier down
  kHandshake   // handshake-phase loss (SYN/FIN/RST segments only)
};

/// Two-state Markov loss model. Each frame first resolves the state
/// transition, then draws against the state's loss probability. Expected
/// burst length is 1 / p_exit_bad frames.
struct GilbertElliott {
  double p_enter_bad = 0.0;  // good -> bad transition probability per frame
  double p_exit_bad = 0.2;   // bad -> good transition probability per frame
  double loss_good = 0.0;    // loss probability in the good state
  double loss_bad = 1.0;     // loss probability in the bad state

  bool enabled() const { return p_enter_bad > 0.0 || loss_good > 0.0; }
};

/// One scripted carrier outage: every frame offered to the wire in
/// [down_at, up_at) is lost. up_at < 0 means the carrier never comes back.
struct LinkFlap {
  sim::SimTime down_at = 0;
  sim::SimTime up_at = -1;
};

/// Composable fault description. All probabilities are per frame; all
/// randomness derives from `seed`, so two runs of the same plan over the
/// same traffic are bit-identical.
struct FaultPlan {
  std::uint64_t seed = 0x5eedULL;

  /// Independent per-frame loss probability.
  double loss_rate = 0.0;
  /// Loss probability applied only to lifecycle segments (SYN, FIN, RST):
  /// the connection-churn failure mode where handshakes and teardowns die
  /// while the data path stays clean. The RNG is consulted for this family
  /// only when the knob is nonzero, so plans without it keep their exact
  /// draw sequences.
  double handshake_loss_rate = 0.0;
  /// Bursty (Gilbert–Elliott) loss; enabled when p_enter_bad > 0.
  GilbertElliott burst;
  /// Payload bit-damage probability (data frames only): the frame arrives
  /// with pkt.corrupted set, feeding the checksum path and the endpoint's
  /// corrupted_delivered counter.
  double corrupt_rate = 0.0;
  /// Probability a frame is delivered twice (second copy trails by a
  /// random delay in (0, jitter_max]).
  double duplicate_rate = 0.0;
  /// Probability a frame is held back by a random extra delay in
  /// (0, jitter_max], reordering it behind later frames.
  double reorder_rate = 0.0;
  /// Upper bound for reorder / duplicate extra delay.
  sim::SimTime jitter_max = sim::usec(100);
  /// Scripted carrier outages, in ascending down_at order.
  std::vector<LinkFlap> flaps;
  /// Restrict the stochastic faults (loss/burst/duplicate/reorder) to
  /// data-carrying frames, sparing pure ACKs.
  bool data_only = false;

  bool any_stochastic() const {
    return loss_rate > 0.0 || handshake_loss_rate > 0.0 ||
           burst.enabled() || corrupt_rate > 0.0 ||
           duplicate_rate > 0.0 || reorder_rate > 0.0;
  }
  bool active() const { return any_stochastic() || !flaps.empty(); }

  // Builder-style helpers keep test matrices readable.
  FaultPlan& with_seed(std::uint64_t s) { seed = s; return *this; }
  FaultPlan& with_loss(double p) { loss_rate = p; return *this; }
  FaultPlan& with_handshake_loss(double p) {
    handshake_loss_rate = p;
    return *this;
  }
  FaultPlan& with_burst(const GilbertElliott& ge) { burst = ge; return *this; }
  FaultPlan& with_corruption(double p) { corrupt_rate = p; return *this; }
  FaultPlan& with_duplication(double p) { duplicate_rate = p; return *this; }
  FaultPlan& with_reordering(double p, sim::SimTime max_delay) {
    reorder_rate = p;
    jitter_max = max_delay;
    return *this;
  }
  FaultPlan& with_flap(sim::SimTime down_at, sim::SimTime up_at) {
    flaps.push_back(LinkFlap{down_at, up_at});
    return *this;
  }
  FaultPlan& only_data() { data_only = true; return *this; }
};

/// Per-device fault tally, printable through tools::fault_summary so bench
/// output shows *why* throughput degraded.
struct FaultCounters {
  std::uint64_t frames_seen = 0;
  std::uint64_t drops_forced = 0;
  std::uint64_t drops_uniform = 0;
  std::uint64_t drops_burst = 0;
  std::uint64_t drops_carrier = 0;
  std::uint64_t drops_handshake = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t flaps = 0;  // carrier up->down transitions observed

  std::uint64_t total_drops() const {
    return drops_forced + drops_uniform + drops_burst + drops_carrier +
           drops_handshake;
  }
  FaultCounters& operator+=(const FaultCounters& o);
};

/// The verdict for one frame.
struct FaultDecision {
  bool drop = false;
  DropCause cause = DropCause::kNone;
  bool corrupt = false;
  bool duplicate = false;
  sim::SimTime extra_delay = 0;      // reorder hold-back
  sim::SimTime duplicate_delay = 0;  // trailing-copy offset
};

/// Runtime a device hosts. decide() is called once per frame in transmit
/// order; the RNG is consulted only for faults the plan actually enables,
/// so an inactive (or loss-only) injector reproduces the draw sequence of
/// the pre-fault-layer loss knob exactly.
class FaultInjector {
 public:
  FaultInjector() : FaultInjector(FaultPlan{}) {}
  explicit FaultInjector(const FaultPlan& plan);

  /// True when the plan injects anything stochastic or scripted. Forced
  /// drops keep working on an inactive injector.
  bool active() const { return plan_.active() || forced_drops_ > 0; }

  /// Re-arms the injector with a new plan (counters reset, RNG reseeded).
  void set_plan(const FaultPlan& plan);
  const FaultPlan& plan() const { return plan_; }

  /// Scripted: lose the next `n` data-carrying frames (payload > 0). The
  /// Table 1 single-loss experiments and the deprecated Link::inject_drops
  /// shim ride this.
  void inject_drops(int n) { forced_drops_ += n; }
  int pending_forced_drops() const { return forced_drops_; }

  /// Resolves one frame offered at simulated time `now`.
  FaultDecision decide(const net::Packet& pkt, sim::SimTime now);

  const FaultCounters& counters() const { return counters_; }

 private:
  bool carrier_down(sim::SimTime now);

  FaultPlan plan_;
  sim::Rng rng_;
  int forced_drops_ = 0;
  bool burst_bad_ = false;
  bool was_down_ = false;
  FaultCounters counters_;
};

/// One-line description of a plan ("loss 1%, burst(0.001->0.2), dup 0.5%").
std::string describe(const FaultPlan& plan);

/// One-line counter rendering ("7 drops (2 uniform, 5 burst), 1 corrupt").
std::string describe(const FaultCounters& c);

/// Short stable name for a drop cause ("uniform", "burst", ...); used by
/// trace annotations and capture lines.
const char* cause_name(DropCause cause);

}  // namespace xgbe::fault

namespace xgbe::obs {
class Registry;
}

namespace xgbe::fault {

/// Registers every FaultCounters field under `prefix` (e.g.
/// "link/a<->b/fault"). The injector must outlive the registry's probes.
void register_metrics(obs::Registry& reg, const std::string& prefix,
                      const FaultInjector& inj);

}  // namespace xgbe::fault
