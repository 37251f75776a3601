// A TCP connection endpoint bound to a simulated host.
//
// Implements enough of a Linux 2.4 TCP to reproduce the paper: Reno/NewReno
// congestion control with a segment-counted congestion window, delayed
// ACKs, RFC 1323 timestamps and window scaling, SWS-avoidance window
// advertising rounded to the receiver's MSS estimate, truesize-charged
// socket buffers, NTTCP-style per-write segmentation, and optional TSO.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "obs/instruments.hpp"
#include "os/kernel.hpp"
#include "os/sockbuf.hpp"
#include "sim/simulator.hpp"
#include "tcp/config.hpp"
#include "tcp/cwnd.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/rtt.hpp"
#include "tcp/window.hpp"

namespace xgbe::obs {
class Registry;
}

namespace xgbe::tcp {

struct EndpointStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;       // payload, first transmissions
  std::uint64_t bytes_acked = 0;      // payload acknowledged
  std::uint64_t bytes_delivered = 0;  // in-order payload made readable
  std::uint64_t bytes_consumed = 0;   // payload read by the application
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dupacks_received = 0;
  std::uint64_t dupacks_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t window_update_acks = 0;
  std::uint64_t rcv_buffer_drops = 0;
  std::uint64_t window_probes = 0;   // zero-window persist probes sent
  std::uint64_t out_of_window = 0;   // segments rejected beyond the window
  std::uint64_t corrupted_delivered = 0;  // silent corruption reached the app
  // Lifecycle counters. Registered through register_lifecycle_metrics(), not
  // register_metrics(), so classic-path registry snapshots (and the golden
  // metric fingerprints derived from them) stay byte-identical.
  std::uint64_t rsts_sent = 0;
  std::uint64_t rsts_received = 0;
  std::uint64_t aborts = 0;               // local abort(): RST out, torn down
  std::uint64_t handshake_failures = 0;   // SYN/SYN-ACK retries exhausted
  std::uint64_t fin_retransmits = 0;
  std::uint64_t time_wait_absorbed = 0;   // replayed FINs eaten in TIME_WAIT
  // ECN counters. Registered only when the endpoint runs with config.ecn
  // (same golden-preserving contract as the lifecycle counters above).
  std::uint64_t ecn_ce_received = 0;      // CE-marked frames accepted
  std::uint64_t ecn_ece_sent = 0;         // segments sent carrying ECE
  std::uint64_t ecn_cwnd_reductions = 0;  // sender reductions (CWR events)
};

enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,    // our FIN sent, not yet acknowledged
  kFinWait2,    // our FIN acknowledged, waiting for the peer's
  kCloseWait,   // peer's FIN received, application not done yet
  kLastAck,     // peer's FIN received and our FIN sent
  kClosing,     // simultaneous close: FINs crossed, ours not yet acked
  kTimeWait     // both FINs exchanged; 2MSL quiet period
};

/// Short stable name ("ESTABLISHED", "FIN_WAIT_1", ...) for diagnostics.
const char* state_name(TcpState state);

/// Why a connection reached kClosed; lets workloads classify outcomes
/// (completed vs refused vs aborted) without watching every transition.
enum class CloseReason : std::uint8_t {
  kNone,              // never closed (or never opened)
  kGraceful,          // FIN handshake (or local close before any SYN flew)
  kHandshakeTimeout,  // SYN / SYN-ACK retries exhausted
  kRefused,           // our SYN was answered with RST
  kReset,             // peer RST tore down an established connection
  kAborted            // local abort(): we sent the RST
};

class Endpoint {
 public:
  using EmitFn = std::function<void(const net::Packet&)>;

  /// Host bindings: the kernel charges path costs, `emit` hands a built
  /// segment to the kernel TX path + adapter, and `obs` is the host's
  /// instrument bundle (span journeys open when a data segment leaves the
  /// TCP layer and close when the peer application consumes the bytes).
  struct Hooks {
    os::Kernel* kernel = nullptr;
    EmitFn emit;
    net::NodeId local_node = 0;
    net::NodeId remote_node = 0;
    net::FlowId flow = 0;
    const obs::Instruments* obs = &obs::Instruments::none();
  };

  Endpoint(sim::Simulator& simulator, const EndpointConfig& config,
           Hooks hooks);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- Connection management ----------------------------------------------
  void listen();
  void connect();
  /// Graceful close: queues a FIN after any pending data (the application
  /// may keep reading; half-close semantics).
  void close();
  /// Hard close: sends a RST (when a peer exists to hear it), discards all
  /// queued and in-flight data, and enters kClosed immediately.
  void abort();
  TcpState state() const { return state_; }
  /// Why the endpoint reached kClosed (kNone while it has not).
  CloseReason close_reason() const { return close_reason_; }
  /// Simulated time the current state was entered.
  sim::SimTime state_entered_at() const { return state_entered_at_; }
  bool established() const { return state_ == TcpState::kEstablished; }
  bool closed() const { return state_ == TcpState::kClosed; }
  /// Fires on transition to ESTABLISHED.
  std::function<void()> on_established;
  /// Fires when the connection is fully closed (both FINs exchanged).
  std::function<void()> on_closed;
  /// Fires when the peer's FIN arrives while we are still open (transition
  /// into kCloseWait): the read side hit EOF. A close-on-EOF server answers
  /// with close() here.
  std::function<void()> on_peer_fin;
  /// Internal teardown hook, invoked on every transition into kClosed just
  /// before on_closed. The owning host uses it to unlink the endpoint from
  /// its connection table; applications should use on_closed.
  void set_close_hook(std::function<void()> hook) {
    close_hook_ = std::move(hook);
  }

  // --- Application interface ----------------------------------------------
  /// One application write of `bytes` (<= sndbuf). `admitted` fires once
  /// the data has been copied into the socket (blocking-write semantics).
  void app_send(std::uint32_t bytes, std::function<void()> admitted);

  /// Fires whenever every byte written so far has been acknowledged.
  std::function<void()> on_all_acked;

  /// Fires after the receiving application consumes bytes (post-copy).
  std::function<void(std::uint64_t)> on_consumed;

  /// Congestion-window trace hook (time, cwnd in segments).
  std::function<void(sim::SimTime, std::uint32_t)> cwnd_trace;

  // --- Observability --------------------------------------------------------
  /// Registers every EndpointStats counter plus cwnd/flight/srtt gauges
  /// under `prefix` (e.g. "host/tx/tcp/flow1").
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

  /// Registers the connection-lifecycle counters (RSTs, aborts, handshake
  /// failures, FIN retransmits, TIME_WAIT absorption) under `prefix`. Kept
  /// out of register_metrics() so snapshots of classic steady-state
  /// workloads remain byte-identical to pre-lifecycle builds.
  void register_lifecycle_metrics(obs::Registry& reg,
                                  const std::string& prefix) const;

  /// Hard congestion-window ceiling in segments (Linux snd_cwnd_clamp).
  void set_cwnd_clamp(std::uint32_t segments) { cc_->set_clamp(segments); }

  /// Pause or resume the application reader mid-connection — models an app
  /// that stops calling read() (the receive window closes) and later comes
  /// back. Resuming drains buffered payload immediately, which sends the
  /// reopening window update.
  void set_app_reader(bool enabled) {
    config_.app_reader = enabled;
    if (enabled) maybe_read();
  }

  // --- Network interface (host demux) --------------------------------------
  /// Packet for this endpoint, after kernel receive costs were charged.
  void on_packet(const net::Packet& pkt);

  // --- Introspection --------------------------------------------------------
  /// Structural self-check for the fault-injection watchdog and the chaos
  /// harness. Verifies sender sequence-space sanity (snd_una <= snd_nxt,
  /// retransmission queue contiguous from snd_una), receive-side delivery
  /// accounting (nothing delivered beyond rcv_nxt, ready == delivered -
  /// consumed), reassembly structure, and FIN/state legality. Returns an
  /// empty string while every invariant holds, else a description of the
  /// first violation. Meant to be called between events (e.g. from
  /// sim::Watchdog ticks), not from inside packet processing.
  std::string invariant_violation() const;

  /// Transient-state liveness check for sim::Watchdog: an endpoint sitting
  /// in a handshake or teardown state longer than that state's timer budget
  /// (retries, backoff, and give-up all included, with slack) has wedged.
  /// Returns an empty string while healthy, else a description. States that
  /// may legally persist (kListen, kEstablished, kFinWait2, kCloseWait)
  /// are never reported.
  std::string stuck_violation(sim::SimTime now) const;

  const EndpointStats& stats() const { return stats_; }
  const EndpointConfig& config() const { return config_; }
  std::uint32_t mss_payload() const { return snd_mss_payload_; }
  std::uint32_t cwnd_segments() const { return cc_->cwnd(); }
  std::uint32_t ssthresh() const { return cc_->ssthresh(); }
  /// Algorithm-specific congestion state (CUBIC K in ms, DCTCP alpha in
  /// 1/1024 fixed point, 0 for Reno-family); feeds the FlowSampler column.
  std::int64_t cc_state() const { return cc_->state_gauge(); }
  /// Active congestion-control strategy (for diagnostics and tests).
  const CongestionControl& congestion() const { return *cc_; }
  std::uint32_t flight_bytes() const {
    return net::seq_span(snd_una_, snd_nxt_);
  }
  std::uint32_t peer_window() const { return rwnd_; }
  std::uint32_t last_advertised_window() const { return last_adv_win_; }
  sim::SimTime srtt() const { return rtt_.srtt(); }
  const RttEstimator& rtt() const { return rtt_; }
  const os::RxSocketBuffer& rx_buffer() const { return rxbuf_; }
  const Reassembly& reassembly() const { return reasm_; }
  std::uint64_t payload_ready() const { return payload_ready_; }
  bool reader_busy() const { return reading_; }
  std::uint32_t unsent_segments() const {
    return static_cast<std::uint32_t>(unsent_.size());
  }
  std::uint32_t unacked_segments() const {
    return static_cast<std::uint32_t>(retx_q_.size());
  }
  net::Seq snd_una() const { return snd_una_; }
  net::Seq snd_nxt() const { return snd_nxt_; }
  std::uint32_t rcv_mss_estimate() const { return rcv_mss_est_; }
  std::uint8_t window_shift() const { return snd_wscale_; }

 private:
  struct TxSegment {
    net::Seq seq = 0;
    std::uint32_t len = 0;
    bool push = false;
    std::uint32_t truesize = 0;
    std::uint32_t packets = 1;  // wire segments (for TSO super-segments)
    sim::SimTime first_sent = 0;
    bool retransmitted = false;
  };

  // Lifecycle.
  void set_state(TcpState next);
  void enter_closed(CloseReason reason);
  void cancel_handshake_timer();
  void schedule_time_wait_expiry();
  void handle_rst(const net::Packet& pkt);
  /// RST carrying our current send position (abort, refused handshake).
  void send_rst(net::Seq seq);
  /// RST answering a stray segment `in` with RFC 793 seq/ack derivation.
  void send_rst_for(const net::Packet& in);

  // TX path.
  bool can_carry_data() const {
    return state_ == TcpState::kEstablished ||
           state_ == TcpState::kCloseWait;
  }
  void admit_pending_writes();
  void maybe_send_fin();
  void handle_fin(const net::Packet& pkt);
  void enter_time_wait();
  void arm_persist_timer();
  void cancel_persist_timer();
  void on_persist_timeout();
  void enqueue_record(std::uint32_t bytes);
  std::uint32_t record_truesize(std::uint32_t bytes) const;
  void try_send();
  void send_segment(TxSegment& seg, bool retransmission);
  void retransmit_head();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  /// Traces a loss-recovery edge (RTO, fast retransmit) at snd_una.
  void trace_recovery(obs::EventType type);
  void handle_ack(const net::Packet& pkt);
  void notify_if_drained();

  // RX path.
  void handle_data(const net::Packet& pkt);
  void maybe_read();
  /// ECE value for an outgoing ACK-bearing segment: classic mode latches
  /// ECE until the sender's CWR arrives; DCTCP mode mirrors the last CE
  /// state so the sender can reconstruct the exact mark fraction.
  bool echo_ece() const;
  void send_ack(bool window_update);
  void schedule_delayed_ack();
  std::uint32_t compute_window();
  void maybe_window_update();

  // Handshake.
  void send_syn(bool ack);
  void arm_handshake_timer();
  void handshake_established();
  void complete_handshake(const net::Packet& pkt);
  net::Packet make_packet(std::uint32_t payload, net::Seq seq) const;

  sim::Simulator& sim_;
  EndpointConfig config_;
  Hooks hooks_;
  EndpointStats stats_;
  TcpState state_ = TcpState::kClosed;
  sim::SimTime state_entered_at_ = 0;
  CloseReason close_reason_ = CloseReason::kNone;
  std::function<void()> close_hook_;
  // Bumped on every TIME_WAIT (re)arm so a superseded 2MSL expiry event
  // (made stale by a replayed FIN restarting the quiet period) is inert.
  std::uint64_t time_wait_generation_ = 0;
  int fin_retries_ = 0;

  // Negotiated parameters.
  bool ts_on_ = false;
  std::uint32_t snd_mss_payload_ = 536;
  std::uint8_t snd_wscale_ = 0;  // our receive-window shift
  std::uint32_t peer_mss_option_ = 536;

  // Sender state.
  net::Seq iss_ = 1;
  net::Seq snd_una_ = 0;
  net::Seq snd_nxt_ = 0;
  std::uint32_t rwnd_ = 0;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;
  // ECN sender state: one feedback window ends when the ACK clock reaches
  // ecn_epoch_end_; the per-window acked/marked tallies feed the strategy
  // (classic once-per-window reduction, or DCTCP's alpha update).
  net::Seq ecn_epoch_end_ = 0;
  std::uint32_t ecn_acked_segs_ = 0;
  std::uint32_t ecn_marked_segs_ = 0;
  bool cwr_pending_ = false;  // set CWR on the next outgoing data segment
  std::deque<TxSegment> unsent_;
  std::deque<TxSegment> retx_q_;
  // Sum of retx_q_'s `packets`, kept in step with every push, pop, trim and
  // clear so the send loop reads it in O(1); invariant_violation() checks it
  // against a recount.
  std::uint32_t flight_pkts_ = 0;
  os::TxSocketBuffer txbuf_;
  std::uint32_t dupacks_ = 0;
  net::Seq recover_ = 0;
  sim::EventId rto_timer_{};
  bool rto_armed_ = false;
  sim::EventId handshake_timer_{};
  bool handshake_armed_ = false;
  int handshake_attempts_ = 0;
  // Teardown state.
  bool fin_pending_ = false;   // close() called, FIN not yet sent
  bool fin_sent_ = false;
  net::Seq fin_seq_ = 0;       // sequence number our FIN occupies
  bool fin_received_ = false;
  // Zero-window persist timer (window probes).
  sim::EventId persist_timer_{};
  bool persist_armed_ = false;
  int persist_backoff_ = 0;
  struct PendingWrite {
    std::uint32_t bytes;
    std::function<void()> admitted;
    sim::SimTime called_at = 0;
  };
  std::deque<PendingWrite> pending_writes_;
  bool write_in_kernel_ = false;
  // Span-profiler bookkeeping: which application write produced which
  // sequence range (to bound the app-write stage), and how far the local
  // reader has consumed (to close inbound journeys). All updates are
  // gated on the armed profiler except the cursors, which are cheap and
  // must stay consistent whether or not a profiler is armed mid-run.
  struct WriteSpan {
    net::Seq begin_seq = 0;
    net::Seq end_seq = 0;
    sim::SimTime called_at = 0;
    sim::SimTime done_at = 0;
  };
  std::deque<WriteSpan> write_spans_;
  net::Seq write_cursor_ = 0;       // next unwritten byte in send space
  net::Seq rcv_consumed_seq_ = 0;   // first unconsumed byte in rcv space

  // Receiver state.
  Reassembly reasm_;
  os::RxSocketBuffer rxbuf_;
  WindowAdvertiser wadv_;
  std::uint32_t rcv_mss_est_ = 536;
  std::uint32_t last_adv_win_ = 0;
  std::uint64_t payload_ready_ = 0;
  bool reading_ = false;
  std::uint32_t delack_count_ = 0;
  sim::EventId delack_timer_{};
  bool delack_armed_ = false;
  sim::SimTime last_ts_val_ = 0;
  // ECN receiver state.
  bool ece_pending_ = false;     // classic: latched CE, cleared by CWR
  bool dctcp_ce_state_ = false;  // DCTCP: CE state of the last data frame
};

}  // namespace xgbe::tcp
