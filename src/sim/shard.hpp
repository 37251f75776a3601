// Sharded event engine: conservative-lookahead windows over per-shard
// Simulators, run one after another on the caller's thread.
//
// The topology is partitioned into shards, each owning a private Simulator
// (event queue + clock) whose components never touch another shard's state.
// The engine advances all shards in lockstep windows of width L, the
// lookahead — the minimum propagation delay over all cross-shard links. A
// window [W, W+L) may run each shard to its edge in turn, because any event
// one shard creates for another is a frame crossing a link: it cannot
// arrive earlier than serialization (>= 1 ps; transfer_time rounds up) plus
// that link's propagation (>= L), i.e. strictly after the window edge. No
// shard can affect another inside a window, so the order the shards run in
// is invisible to the simulation. This is the classic conservative
// null-message/window scheme, with the global barrier playing the role of
// the null messages.
//
// Cross-shard events never touch a foreign event queue directly. A link
// direction takes a channel id from the engine when it is built, and posts
// each delivery into the engine's outbox. At the barrier the engine
// schedules what the outbox holds on the destination shards in a fixed
// merge order — (timestamp, channel id, post order) — where channel ids are
// handed out in topology construction order. Every key in that order is
// independent of how hosts were partitioned, so the committed schedule, and
// therefore the whole simulation, is bit-identical for any shard count,
// including one. A barrier costs O(entries posted in the window); it
// touches no link.
//
// Sharding pays on one thread: each shard's queue holds only its share of
// the pending events (docs/architecture.md, "Sharded engine").
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// Engine-level watchdog options; mirrors sim::Watchdog::Options. The engine
/// watchdog is evaluated at window barriers (not via scheduled events), so
/// arming it perturbs nothing: armed runs are bit-identical to unarmed.
struct EngineWatchdogOptions {
  /// Committed simulated time between checks.
  SimTime interval = msec(100);
  /// Consecutive no-progress checks before the watchdog trips.
  int stalled_ticks = 10;
};

/// Runs N shard Simulators in turn, window by window, under conservative
/// lookahead with a barrier-committed outbox. Deterministic for any shard
/// count.
class ShardedEngine {
 public:
  explicit ShardedEngine(std::size_t shard_count);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  Simulator& shard(std::size_t i) { return *shards_[i]; }
  const Simulator& shard(std::size_t i) const { return *shards_[i]; }

  /// Hands out the next channel id. Ids go out in call order, which must
  /// follow topology construction order (it is part of the merge order, so
  /// it must not depend on the partition).
  std::uint32_t add_channel() { return channels_++; }

  /// Posts `fn` to run on shard `to` at `at`; the window's barrier
  /// schedules it. One channel is posted from one shard, so its entries
  /// sit in the outbox in post order. `at` must lie past the window, as a
  /// frame crossing a link does.
  void post(std::uint32_t channel, std::size_t to, SimTime at,
            InlineCallback fn) {
    outbox_.push_back(
        Posted{at, channel, static_cast<std::uint32_t>(to), std::move(fn)});
  }

  /// Sets the lookahead (window width). Must be <= the minimum propagation
  /// delay over all cross-shard links; Testbed computes it as the minimum
  /// over ALL links, which is always safe. Clamped to >= 1 ps.
  void set_lookahead(SimTime lookahead);
  SimTime lookahead() const { return lookahead_; }

  /// Runs until every shard drains or a stop is requested (engine stop() or
  /// any shard's Simulator::stop(), e.g. a per-shard watchdog tripping).
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  /// Runs windows until `horizon` (inclusive for events at exactly
  /// `horizon`). Advances every shard clock to `horizon` when the event
  /// supply ends early, mirroring Simulator::run_until; no clock moves
  /// back.
  void run_until(SimTime horizon);

  /// Requests that run() return at the next barrier.
  void stop() { stop_requested_ = true; }

  /// True when the last run ended on a stop (engine or any shard).
  bool stopped() const { return stopped_; }

  /// Committed global time (the horizon after a completed run_until, unless
  /// it was already past it).
  SimTime now() const { return now_; }

  /// Sum of events executed across all shards.
  std::uint64_t executed_events() const;

  /// Lookahead windows executed so far.
  std::uint64_t windows() const { return windows_; }

  /// Posted events committed at barriers so far.
  std::uint64_t exchanged() const { return exchanged_; }

  // --- Engine watchdog ------------------------------------------------------
  // The per-shard sim::Watchdog ticks via scheduled events, which would
  // perturb the window schedule, and would read other shards' counters
  // mid-window. The engine-level watchdog instead evaluates progress
  // counters at barriers whenever committed time crosses an interval
  // boundary: zero events, zero perturbation.

  /// Registers a monotonic progress counter (may read any shard's state —
  /// evaluated only between windows).
  void watch_progress(std::string name, std::function<std::uint64_t()> fn);

  /// Registers a diagnostic context provider, evaluated only on trip.
  void add_trip_context(std::string name, std::function<std::string()> fn);

  void arm_watchdog(EngineWatchdogOptions options = {});
  void disarm_watchdog() { watchdog_armed_ = false; }
  bool watchdog_armed() const { return watchdog_armed_; }
  bool tripped() const { return tripped_; }
  const std::string& diagnosis() const { return diagnosis_; }

  /// Invoked once when the watchdog trips, after the diagnosis is set.
  std::function<void(const std::string&)> on_trip;

  // --- Barrier time hook ----------------------------------------------------
  /// Arms a boundary hook (null disarms), evaluated at window barriers like
  /// the engine watchdog: the hook fires after a window's exchange commit,
  /// once committed time reaches its due boundary — so it may read any
  /// shard's state, schedules nothing, and armed runs stay bit-identical to
  /// unarmed (executed-event counts included). The barrier sequence depends
  /// only on committed time and the lookahead, both partition-invariant, so
  /// hook observations are identical for any shard count.
  void set_time_hook(TimeHook* hook) { hook_ = hook; }
  TimeHook* time_hook() const { return hook_; }

 private:
  struct ProgressCounter {
    std::string name;
    std::function<std::uint64_t()> fn;
    std::uint64_t last = 0;
    bool primed = false;
  };
  struct TripContext {
    std::string name;
    std::function<std::string()> fn;
  };
  // One posted event, waiting in the outbox for the barrier.
  struct Posted {
    SimTime at;
    std::uint32_t channel;
    std::uint32_t to;
    InlineCallback fn;
  };
  // Merge key for one posted entry: `index` is its place in the outbox. A
  // channel has one source shard, so its entries are in post order there,
  // and the order is total and partition-invariant.
  struct CommitKey {
    SimTime at;
    std::uint32_t channel;
    std::uint32_t index;
  };

  /// Earliest pending event time across shards (SimTime max when drained).
  SimTime global_next_event_time() const;

  /// Executes one window: shards 0..n-1, in turn, run to `edge_inclusive`.
  void execute_window(SimTime edge_inclusive);

  /// Schedules every posted entry in merge order and empties the outbox.
  void commit_exchange();

  /// Evaluates the watchdog for every interval boundary crossed when
  /// committed time reaches `committed`. Returns false when it tripped.
  bool check_watchdog(SimTime committed);
  void trip(std::string why);

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<Posted> outbox_;  // posted this window, in post order
  std::uint32_t channels_ = 0;
  SimTime lookahead_ = 1;
  SimTime now_ = 0;
  bool stopped_ = false;
  bool stop_requested_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t exchanged_ = 0;
  std::vector<CommitKey> commit_order_;  // scratch, reused across barriers

  TimeHook* hook_ = nullptr;

  // Watchdog state.
  bool watchdog_armed_ = false;
  bool tripped_ = false;
  EngineWatchdogOptions watchdog_options_;
  SimTime next_check_ = 0;
  int stalled_ = 0;
  std::vector<ProgressCounter> progress_;
  std::vector<TripContext> contexts_;
  std::string diagnosis_;
};

}  // namespace xgbe::sim
