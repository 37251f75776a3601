#include "core/churn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

#include "sim/random.hpp"
#include "tcp/endpoint.hpp"

namespace xgbe::core::churn {

namespace {

struct Conn {
  tcp::Endpoint* ep = nullptr;
  sim::SimTime opened_at = 0;
  sim::SimTime done_at = 0;  // transfer finished (all payload acked)
  std::uint32_t bytes = 0;
  bool established = false;
  bool transfer_done = false;  // no longer counts against max_concurrent
  bool closed = false;
};

struct Driver {
  Testbed& bed;
  Host& client;
  Host& server;
  const Options& opt;
  Result& res;
  sim::Simulator& sim;
  sim::Rng rng;
  tcp::EndpointConfig client_cfg;
  std::deque<Conn> conns{};  // deque: stable addresses for callback captures
  std::uint32_t scheduled = 0;  // arrival events issued so far
  std::uint32_t deferred = 0;   // arrivals waiting for a concurrency slot
  std::uint32_t active = 0;     // connections still counting against the cap
  std::uint64_t finished = 0;   // connections that reached kClosed
  sim::EventId arrival_event_{};
  bool arrival_pending_ = false;
  /// Set once the deadline passes: aborting a straggler frees its
  /// concurrency slot, which must NOT admit a deferred arrival mid-cleanup
  /// (a fresh SYN_SENT connection nobody will ever close would leak from
  /// the connection ledger — and appending to `conns` would invalidate the
  /// abort loop's iterators).
  bool draining = false;

  sim::SimTime interarrival() {
    // Exponential gap; 1 - u keeps log() off zero.
    const double u = rng.next_double();
    const double s = -std::log(1.0 - u) / opt.arrival_rate_hz;
    return std::max<sim::SimTime>(sim::from_seconds(s), 1);
  }

  std::uint32_t draw_size() {
    // Bounded Pareto via inverse CDF: x = L * (1 - u(1 - (L/H)^a))^(-1/a).
    const double u = rng.next_double();
    const double l = static_cast<double>(opt.min_bytes);
    const double h = static_cast<double>(opt.max_bytes);
    const double ratio = std::pow(l / h, opt.pareto_alpha);
    const double x = l * std::pow(1.0 - u * (1.0 - ratio),
                                  -1.0 / opt.pareto_alpha);
    return std::clamp(static_cast<std::uint32_t>(x), opt.min_bytes,
                      opt.max_bytes);
  }

  void pump_arrivals() {
    if (scheduled >= opt.connections) {
      arrival_pending_ = false;
      return;
    }
    ++scheduled;
    arrival_pending_ = true;
    arrival_event_ = sim.schedule(interarrival(), [this]() {
      arrival_pending_ = false;
      if (active < opt.max_concurrent) {
        open_one();
      } else {
        ++deferred;
      }
      pump_arrivals();
    });
  }

  void open_deferred() {
    if (draining) return;
    while (deferred > 0 && active < opt.max_concurrent) {
      --deferred;
      open_one();
    }
  }

  /// The connection stops counting against max_concurrent: either its
  /// transfer completed (the application would close and move on) or it
  /// died. Frees a slot for a deferred arrival.
  void finish_transfer(Conn* c) {
    if (c->transfer_done) return;
    c->transfer_done = true;
    c->done_at = sim.now();
    --active;
    open_deferred();
  }

  void open_one() {
    conns.emplace_back();
    Conn* c = &conns.back();
    c->bytes = draw_size();
    c->opened_at = sim.now();
    tcp::Endpoint& ep =
        client.create_endpoint(client_cfg, bed.next_flow(), server.node());
    c->ep = &ep;
    ++res.opened;
    ++active;
    if (res.opened == 1) res.first_open = sim.now();

    ep.on_established = [this, c]() {
      c->established = true;
      // Queue the whole flow as blocking writes; chunks respect the
      // per-write sndbuf ceiling.
      std::uint32_t remaining = c->bytes;
      while (remaining > 0) {
        const std::uint32_t chunk = std::min(remaining, client_cfg.sndbuf);
        c->ep->app_send(chunk, nullptr);
        remaining -= chunk;
      }
    };
    ep.on_all_acked = [this, c]() {
      // Fires on every full drain (including window-update ACKs before any
      // write); only the drain that covers the whole flow finishes it.
      if (c->transfer_done || !c->established) return;
      if (c->ep->stats().bytes_acked < c->bytes) return;
      finish_transfer(c);
      c->ep->close();
    };
    ep.on_closed = [this, c]() {
      if (c->closed) return;
      c->closed = true;
      ++finished;
      res.last_close = sim.now();
      if (!c->established) {
        ++res.refused;
      } else if (c->ep->close_reason() == tcp::CloseReason::kGraceful) {
        ++res.completed;
        res.bytes_acked += c->bytes;
        const sim::SimTime fct = c->done_at - c->opened_at;
        res.fct_sum += fct;
        res.fct_max = std::max(res.fct_max, fct);
      } else {
        ++res.aborted;
      }
      finish_transfer(c);  // no-op if the transfer already completed
    };
    ep.connect();
  }

  bool done() const {
    return res.opened == opt.connections && finished == opt.connections;
  }
};

}  // namespace

Result run(Testbed& bed, Host& client, Host& server, const Options& opt,
           Result* live) {
  Result local;
  Result& res = live != nullptr ? *live : local;
  res = Result{};
  if (opt.connections == 0) return res;

  // Close-on-EOF server: each accepted child answers the client's FIN with
  // its own. The callbacks capture only host-owned objects, so the listener
  // keeps working after this function returns.
  tcp::Listener& listener =
      server.listen(opt.listener, server.endpoint_config());
  listener.on_accept = [](tcp::Endpoint& ep) {
    ep.on_peer_fin = [&ep]() { ep.close(); };
  };
  client.set_lifecycle_metrics(true);

  // In sharded mode every driver mutation (arrival events, the client
  // endpoints' callbacks, Result tallies) happens on the client's shard, so
  // the driver schedules on that shard's simulator. Listener work stays on
  // the server's shard, reached only through the wire.
  Driver d{bed,       client, server, opt, res, bed.simulator_for(client),
           sim::Rng(opt.seed), client.endpoint_config()};
  d.pump_arrivals();

  // Expected span of the arrival process plus the drain grace; everything
  // (retries, give-ups, TIME_WAIT) must resolve inside it.
  const sim::SimTime deadline =
      bed.now() +
      sim::from_seconds(static_cast<double>(opt.connections) /
                        opt.arrival_rate_hz) +
      opt.drain_timeout;
  while (!d.done() && bed.now() < deadline) {
    const sim::SimTime before = bed.now();
    bed.run_for(sim::msec(200));
    if (bed.now() == before) break;  // stopped (watchdog trip) — bail out
  }

  // Deterministic cleanup: abort stragglers so every opened connection
  // lands in a terminal bucket, then detach the callbacks (they capture
  // this stack frame) so nothing dangles if the caller keeps simulating.
  if (d.arrival_pending_) d.sim.cancel(d.arrival_event_);
  d.draining = true;
  for (Conn& c : d.conns) {
    if (!c.closed && c.ep != nullptr) c.ep->abort();
  }
  for (Conn& c : d.conns) {
    if (c.ep == nullptr) continue;
    c.ep->on_established = nullptr;
    c.ep->on_all_acked = nullptr;
    c.ep->on_closed = nullptr;
  }
  return res;
}

}  // namespace xgbe::core::churn
