#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>

namespace xgbe::sim {

namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/// Window edge (inclusive) for a window starting at `start`, bounded by the
/// run horizon. Saturating so run() (horizon = max) never overflows.
SimTime window_edge(SimTime start, SimTime lookahead, SimTime horizon) {
  const SimTime last =
      start > kForever - lookahead ? kForever : start + lookahead - 1;
  return last < horizon ? last : horizon;
}

}  // namespace

ShardedEngine::ShardedEngine(std::size_t shard_count) {
  assert(shard_count > 0);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
}

void ShardedEngine::set_lookahead(SimTime lookahead) {
  lookahead_ = lookahead < 1 ? 1 : lookahead;
}

std::uint64_t ShardedEngine::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->executed_events();
  return total;
}

SimTime ShardedEngine::global_next_event_time() const {
  SimTime earliest = kForever;
  for (const auto& shard : shards_) {
    earliest = std::min(earliest, shard->next_event_time());
  }
  return earliest;
}

void ShardedEngine::run_until(SimTime horizon) {
  stopped_ = false;
  stop_requested_ = false;
  for (;;) {
    // The window start is the earliest pending event anywhere. Both it and
    // the lookahead are partition-invariant, so the window sequence — and
    // with it the whole committed schedule — is too.
    const SimTime window_start = global_next_event_time();
    if (window_start == kForever || window_start > horizon) break;
    const SimTime edge = window_edge(window_start, lookahead_, horizon);
    execute_window(edge);
    ++windows_;
    // Commit even when stopping: posted entries are scheduled (not
    // executed), and leaving them in the outbox would let a resumed run
    // commit them into a window that has already passed.
    commit_exchange();
    bool shard_stopped = false;
    for (const auto& shard : shards_) shard_stopped |= shard->stopped();
    if (shard_stopped || stop_requested_) {
      stopped_ = true;
      return;
    }
    if (!check_watchdog(edge)) {
      stopped_ = true;
      return;
    }
    // Barrier hook: every event at or before `edge` has executed and the
    // window's exchange is committed, so boundaries up to the edge are
    // observable — zero events, zero perturbation. The
    // boundary (not the edge) travels as the observation time, keeping the
    // recorded timestamps independent of the lookahead.
    if (hook_ != nullptr) {
      while (hook_->due() <= edge) hook_->advance(hook_->due());
    }
  }
  // Event supply ended (or starts past the horizon): advance every shard
  // clock to the horizon so bounded waits make progress, exactly like
  // Simulator::run_until, which leaves a clock past the horizon alone.
  // run() passes SimTime max; leave clocks alone then.
  if (horizon != kForever) {
    for (auto& shard : shards_) shard->run_until(horizon);
    now_ = std::max(now_, horizon);
    if (hook_ != nullptr) {
      while (hook_->due() <= horizon) hook_->advance(hook_->due());
    }
  } else {
    for (const auto& shard : shards_) now_ = std::max(now_, shard->now());
  }
}

void ShardedEngine::execute_window(SimTime edge_inclusive) {
  for (auto& shard : shards_) shard->run_until(edge_inclusive);
  now_ = edge_inclusive;
}

void ShardedEngine::commit_exchange() {
  if (outbox_.empty()) return;
  commit_order_.clear();
  for (std::uint32_t i = 0; i < outbox_.size(); ++i) {
    commit_order_.push_back({outbox_[i].at, outbox_[i].channel, i});
  }
  // (time, channel, post order): unique, total, and independent of the
  // partition — channel ids follow topology construction order, not shard
  // layout. Committed entries therefore take identical queue sequence
  // numbers in every configuration.
  std::sort(commit_order_.begin(), commit_order_.end(),
            [](const CommitKey& a, const CommitKey& b) {
              return std::tie(a.at, a.channel, a.index) <
                     std::tie(b.at, b.channel, b.index);
            });
  for (const CommitKey& key : commit_order_) {
    Posted& entry = outbox_[key.index];
    Simulator& dst = *shards_[entry.to];
    // Conservative lookahead guarantees the entry lands strictly past the
    // window it was posted in, so the destination clock has not reached
    // it yet; schedule_at never has to clamp.
    assert(entry.at >= dst.now());
    dst.schedule_at(entry.at, std::move(entry.fn));
  }
  exchanged_ += commit_order_.size();
  outbox_.clear();
}

void ShardedEngine::watch_progress(std::string name,
                                   std::function<std::uint64_t()> fn) {
  progress_.push_back({std::move(name), std::move(fn), 0, false});
}

void ShardedEngine::add_trip_context(std::string name,
                                     std::function<std::string()> fn) {
  contexts_.push_back({std::move(name), std::move(fn)});
}

void ShardedEngine::arm_watchdog(EngineWatchdogOptions options) {
  watchdog_options_ = options;
  if (watchdog_options_.interval < 1) watchdog_options_.interval = 1;
  watchdog_armed_ = true;
  tripped_ = false;
  stalled_ = 0;
  diagnosis_.clear();
  next_check_ = now_ + watchdog_options_.interval;
  for (auto& counter : progress_) counter.primed = false;
}

bool ShardedEngine::check_watchdog(SimTime committed) {
  if (!watchdog_armed_) return true;
  // Evaluate once per interval boundary crossed by this window. The check
  // schedule depends only on committed time, which is partition-invariant,
  // and evaluation only reads counters — armed runs stay bit-identical.
  while (committed >= next_check_) {
    bool moved = false;
    std::string stalled_names;
    for (auto& counter : progress_) {
      const std::uint64_t value = counter.fn();
      if (!counter.primed || value != counter.last) moved = true;
      if (counter.primed && value == counter.last) {
        if (!stalled_names.empty()) stalled_names += ", ";
        stalled_names += counter.name;
      }
      counter.primed = true;
      counter.last = value;
    }
    stalled_ = moved ? 0 : stalled_ + 1;
    if (!progress_.empty() && stalled_ >= watchdog_options_.stalled_ticks) {
      std::string why = "no progress for " + std::to_string(stalled_) +
                        " checks (stalled: " + stalled_names + ")";
      trip(std::move(why));
      return false;
    }
    if (next_check_ > kForever - watchdog_options_.interval) {
      next_check_ = kForever;
      break;
    }
    next_check_ += watchdog_options_.interval;
  }
  return true;
}

void ShardedEngine::trip(std::string why) {
  tripped_ = true;
  diagnosis_ = "engine watchdog tripped at t=" + std::to_string(now_) +
               "ps: " + std::move(why);
  for (const auto& context : contexts_) {
    diagnosis_ += "\n  " + context.name + ": " + context.fn();
  }
  if (on_trip) on_trip(diagnosis_);
}

}  // namespace xgbe::sim
