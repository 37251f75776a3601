// Per-segment latency attribution (span profiler) and per-flow time-series
// sampling.
//
// SpanProfiler follows each data segment through the pipeline stages the
// paper's latency ledger argues about (Fig. 6/7: where do the 19 us go?):
//
//   app-write -> sockbuf -> tx-ring -> tx-dma -> wire -> switch-queue
//             -> rx-ring -> intr-coalesce -> rx-stack -> app-read
//
// Stamps come from the same choke points that feed obs::TraceSink, through
// the same obs::Instruments bundle, and obey the same zero-perturbation
// contract: every hook is gated on the bundle's `spans` pointer, the
// profiler draws no random numbers and schedules no events, so an armed run
// is bit-identical to an unarmed one (asserted by test).
//
// Accounting is telescoping: a journey remembers only the stage it is
// currently in and when it entered; each mark() charges the elapsed interval
// to the stage being left. Durations are integer picoseconds, so the stage
// totals sum to the end-to-end total *exactly* — the breakdown is a ledger,
// not an approximation. Repeated marks of the same stage (e.g. the two wire
// hops around a switch) simply accumulate.
//
// FlowSampler is the time-series half: a fixed-interval sampler of
// cwnd/ssthresh/flightsize/srtt/rwnd per flow (the paper's WAN cwnd-evolution
// view of the land-speed-record run). Unlike the profiler it *does* schedule
// its own timer events, but every probe is a read-only closure, so simulation
// results still match an unarmed run bit-for-bit (only the executed-event
// count differs).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {
class Simulator;
}

namespace xgbe::obs {

/// Pipeline stages a data segment passes through, in path order. Each value
/// names the interval *ending* at the corresponding choke point; see
/// stage_name() for the labels used in tables and JSON.
enum class Stage : std::uint8_t {
  kAppWrite = 0,  // app_send() called -> kernel admitted the write
  kSockbuf,       // write admitted -> segment built and handed to the driver
  kTxRing,        // driver queue + tx descriptor ring wait -> DMA starts
  kTxDma,         // DMA read across the I/O bus -> first bit on the wire
  kWire,          // serialization + propagation (accumulates per hop)
  kSwitchQueue,   // switch ingress -> egress port begins transmit
  kRxRing,        // last bit arrived -> RX DMA write complete
  kIntrCoalesce,  // DMA complete -> interrupt raised (coalescing hold-off)
  kRxStack,       // interrupt -> TCP accepted the segment (stack + reasm)
  kAppRead,       // accepted -> application consumed the bytes
};

inline constexpr std::size_t kStageCount = 10;

/// One journey's duration per stage, in picoseconds, indexed by Stage.
using StageDurations = std::array<std::int64_t, kStageCount>;

/// Display name for a stage ("app-write", "intr-coalesce", ...).
const char* stage_name(Stage stage);

/// Aggregated attribution result. All _ps totals are exact integer sums of
/// journey stage durations; stage_total_ps sums to end_to_end_total_ps by
/// construction (asserted by the stage-conservation test).
struct SpanBreakdown {
  StageDurations stage_total_ps{};
  std::int64_t end_to_end_total_ps = 0;
  std::uint64_t journeys = 0;    // completed (consumed) journeys
  std::uint64_t opened = 0;      // journeys started
  std::uint64_t aborted = 0;     // dropped / retransmitted / superseded
  std::uint64_t overflowed = 0;  // not tracked: open-set cap reached

  std::int64_t stage_sum_ps() const;
  double stage_mean_us(Stage stage) const;
  double end_to_end_mean_us() const;
};

/// Aligned text table of per-stage means; the end-to-end row is the exact
/// sum of the stage rows. Pass the independently measured latency (e.g.
/// NetPIPE's RTT/2) as `measured_us` to print a cross-check row; pass a
/// negative value to omit it.
std::string format_breakdown_table(const SpanBreakdown& b,
                                   double measured_us = -1.0);

/// Deterministic JSON rendering (fixed key order, integers for _ps totals,
/// shortest-round-trip doubles for the derived means).
std::string breakdown_json(const SpanBreakdown& b);

/// Follows individual data segments through the pipeline. Armed with
/// core::Testbed::set_span_profiler(), which stores it in the testbed's
/// instrument bundle; every model hook is a no-op while that is null.
class SpanProfiler {
 public:
  explicit SpanProfiler(double hist_max_us = 100.0,
                        std::size_t hist_buckets = 100,
                        std::size_t max_open = 4096);

  /// Opens a journey for `pkt` (the first frame carrying a tracked write).
  /// `write_call`/`write_done` bound the app-write stage, `emitted` is when
  /// the segment left the TCP layer (closing the sockbuf stage). Ineligible
  /// packets (non-TCP, empty payload, SYN/FIN) are ignored.
  void begin(const net::Packet& pkt, sim::SimTime write_call,
             sim::SimTime write_done, sim::SimTime emitted);

  /// Charges the interval since the previous mark to the stage the journey
  /// is leaving, then enters `stage` at `at`. Unknown packets are ignored
  /// (e.g. TSO sub-frames after the first, or journeys opened before a
  /// reset()).
  void mark(const net::Packet& pkt, Stage stage, sim::SimTime at);

  /// Abandons the journey for `pkt` (drop, retransmission supersedes it).
  void abort(const net::Packet& pkt);

  /// Closes every open journey on `flow` from `src` whose payload lies
  /// entirely below `consumed_upto` (the receiver's cumulative consumed
  /// sequence): charges the final app-read interval and folds the journey
  /// into the aggregates.
  void finish_consumed(net::FlowId flow, net::NodeId src, net::Seq
                       consumed_upto, sim::SimTime at);

  /// Drops all aggregates *and* open journeys; used at a bench warmup
  /// boundary so the breakdown covers exactly the measured iterations.
  /// The journey observer stays.
  void reset();

  /// Called with the stage durations of every journey that completes,
  /// once it has been folded into the aggregates (null disarms). Aborted
  /// and overflowed journeys never reach it.
  void set_journey_observer(std::function<void(const StageDurations&)> fn) {
    observer_ = std::move(fn);
  }

  SpanBreakdown breakdown() const;
  const sim::Histogram& stage_histogram(Stage stage) const;
  const sim::Histogram& end_to_end_histogram() const;
  std::size_t open_journeys() const { return open_.size(); }

 private:
  struct Key {
    net::FlowId flow = 0;
    net::NodeId src = 0;
    net::Seq seq = 0;  // first payload byte
    bool operator<(const Key& o) const {
      if (flow != o.flow) return flow < o.flow;
      if (src != o.src) return src < o.src;
      return seq < o.seq;
    }
  };
  struct Journey {
    StageDurations dur{};
    sim::SimTime begin_at = 0;  // app_send() call time
    sim::SimTime last_at = 0;
    Stage last_stage = Stage::kAppWrite;
    std::uint32_t len = 0;  // payload bytes
  };

  static bool eligible(const net::Packet& pkt);
  void finish(Journey& j, sim::SimTime at);

  // std::map: deterministic iteration for finish_consumed()'s range scan.
  std::map<Key, Journey> open_;
  StageDurations stage_total_ps_{};
  std::int64_t end_to_end_total_ps_ = 0;
  std::uint64_t journeys_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t overflowed_ = 0;
  std::vector<sim::Histogram> stage_hist_;
  sim::Histogram e2e_hist_;
  double hist_max_us_;
  std::size_t hist_buckets_;
  std::size_t max_open_;
  std::function<void(const StageDurations&)> observer_;
};

/// Fixed-interval per-flow sampler of the TCP state variables the paper's
/// WAN analysis plots (cwnd evolution over the land-speed-record transfer).
///
/// The sampler lives above the TCP layer: core::Testbed registers a
/// read-only probe closure per connection (keeping obs free of a tcp
/// dependency). Arm it *before* opening connections; rows are appended in
/// (time, watch-registration) order, so output is deterministic.
class FlowSampler {
 public:
  struct Sample {
    std::uint32_t cwnd_segments = 0;
    std::uint32_t ssthresh_segments = 0;
    std::uint64_t flight_bytes = 0;
    std::uint64_t rwnd_bytes = 0;
    sim::SimTime srtt = 0;
    /// Algorithm-specific congestion state (CUBIC K in ms, DCTCP alpha in
    /// 1/1024 fixed point, 0 for Reno-family).
    std::int64_t cc_state = 0;
  };
  using Probe = std::function<Sample()>;

  struct Row {
    sim::SimTime at = 0;
    net::FlowId flow = 0;
    Sample sample;
  };

  explicit FlowSampler(sim::SimTime interval,
                       std::size_t max_samples = 65536);
  ~FlowSampler() { stop(); }
  FlowSampler(const FlowSampler&) = delete;
  FlowSampler& operator=(const FlowSampler&) = delete;

  /// Binds the sampler to a simulator clock (done by
  /// Testbed::set_flow_sampler). The first tick fires one interval later.
  void attach(sim::Simulator& sim);

  /// Registers a flow probe; sampled every interval from the next tick.
  void watch(net::FlowId flow, Probe probe);

  /// Cancels the pending tick. Call before draining the simulator if the
  /// run should end (the self-rearming timer otherwise keeps the event set
  /// non-empty until max_samples). Safe to call repeatedly.
  void stop();

  /// Stops, drops all probes and rows, and detaches from the simulator so
  /// the sampler can be re-armed against a fresh testbed.
  void reset();

  sim::SimTime interval() const { return interval_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// "at_ps,flow,cwnd_segments,ssthresh_segments,flight_bytes,srtt_us,
  /// rwnd_bytes,cc_state" header plus one line per row. Byte-identical
  /// across reruns.
  std::string to_csv() const;
  /// One JSON object per line, same fields as the CSV.
  std::string to_jsonl() const;

 private:
  void tick();
  void arm();

  sim::Simulator* sim_ = nullptr;
  sim::SimTime interval_;
  std::size_t max_samples_;
  std::vector<std::pair<net::FlowId, Probe>> probes_;
  std::vector<Row> rows_;
  sim::EventId timer_{};
  bool armed_ = false;
};

/// Deterministic JSON rendering of a sampler's series for the bench result
/// log: {"interval_ps":..,"columns":[..],"rows":[[..],..]}.
std::string series_json(const FlowSampler& sampler);

}  // namespace xgbe::obs
