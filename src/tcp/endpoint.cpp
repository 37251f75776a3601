#include "tcp/endpoint.hpp"

#include <algorithm>
#include <cassert>

#include "net/headers.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "os/kmalloc.hpp"

namespace xgbe::tcp {
namespace {

/// Delayed-ACK timer (Linux 2.4 minimum delack interval).
constexpr sim::SimTime kDelackTimeout = sim::msec(40);

/// SYN / SYN-ACK transmissions before the handshake gives up (Linux 2.4
/// tcp_syn_retries); with 3 s initial backoff the give-up lands ~93 s in.
constexpr int kMaxHandshakeAttempts = 5;

/// FIN retransmissions before the teardown aborts with a RST. Backoff can
/// start from the 3 s initial RTO when the connection never sampled an RTT.
constexpr int kMaxFinRetries = 6;

/// 2MSL quiet period; shortened from the RFC 793 minutes to keep
/// simulations snappy — nothing in the model depends on its length.
constexpr sim::SimTime kTimeWaitPeriod = sim::sec(1);

/// Watchdog budgets: longest a healthy endpoint can sit in a transient
/// state, derived from the retry counts above with generous slack.
/// Handshake: 3+6+12+24+48 s of backoff ≈ 93 s before give-up.
constexpr sim::SimTime kHandshakeStateBudget = sim::sec(120);
/// Teardown: 6 FIN retries backing off from a worst-case 3 s initial RTO
/// (sum ≈ 189 s, RTO-capped tail ≈ 309 s) before the abort path fires.
/// TIME_WAIT shares it: replayed FINs restart 2MSL only while the peer is
/// still inside this same bounded retry schedule.
constexpr sim::SimTime kTeardownStateBudget = sim::sec(400);

/// Window-scale shift needed so that `space` fits in a 16-bit field.
std::uint8_t wscale_for(std::uint32_t space) {
  std::uint8_t shift = 0;
  while (shift < 14 && (space >> shift) > 65535) ++shift;
  return shift;
}

}  // namespace

const char* state_name(TcpState state) {
  switch (state) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RECEIVED";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

Endpoint::Endpoint(sim::Simulator& simulator, const EndpointConfig& config,
                   Hooks hooks)
    : sim_(simulator),
      config_(config),
      hooks_(std::move(hooks)),
      cc_(make_congestion_control(config.cc, config.initial_cwnd)),
      txbuf_(config.sndbuf),
      rxbuf_(config.rcvbuf),
      wadv_(config.sws_round_window,
            /*max_window=*/0x3fffffffu /* refined after negotiation */) {
  assert(hooks_.kernel != nullptr);
  // Deterministic ISS derived from addressing; no security concerns here.
  iss_ = hooks_.local_node * 100003u + hooks_.flow * 17u + 1u;
}

net::Packet Endpoint::make_packet(std::uint32_t payload,
                                  net::Seq seq) const {
  net::Packet pkt;
  pkt.protocol = net::Protocol::kTcp;
  pkt.flow = hooks_.flow;
  pkt.src = hooks_.local_node;
  pkt.dst = hooks_.remote_node;
  pkt.payload_bytes = payload;
  pkt.frame_bytes = net::tcp_frame_bytes(payload, ts_on_);
  pkt.tcp.seq = seq;
  pkt.tcp.timestamps = ts_on_;
  pkt.tcp.ts_val = sim_.now();
  pkt.tcp.ts_ecr = last_ts_val_;
  return pkt;
}

// --- Lifecycle --------------------------------------------------------------

void Endpoint::set_state(TcpState next) {
  if (state_ == next) return;
  state_ = next;
  state_entered_at_ = sim_.now();
}

void Endpoint::cancel_handshake_timer() {
  if (handshake_armed_) {
    sim_.cancel(handshake_timer_);
    handshake_armed_ = false;
  }
}

void Endpoint::enter_closed(CloseReason reason) {
  if (state_ == TcpState::kClosed) return;
  set_state(TcpState::kClosed);
  close_reason_ = reason;
  // Every timer dies with the connection; a cancelled event is cheaper and
  // cleaner than a stale callback testing state.
  cancel_handshake_timer();
  cancel_rto();
  cancel_persist_timer();
  if (delack_armed_) {
    sim_.cancel(delack_timer_);
    delack_armed_ = false;
  }
  // Release send-side resources. Pending writes are dropped without their
  // `admitted` callback — a blocking write on a dead connection fails. The
  // in-kernel write continuation checks for kClosed before touching the
  // queue, so clearing here is safe even mid-write.
  unsent_.clear();
  retx_q_.clear();
  flight_pkts_ = 0;
  pending_writes_.clear();
  txbuf_.release(txbuf_.wmem_alloc());
  if (close_hook_) close_hook_();
  if (on_closed) on_closed();
}

void Endpoint::send_rst(net::Seq seq) {
  net::Packet pkt = make_packet(0, seq);
  pkt.tcp.flags.rst = true;
  pkt.tcp.flags.ack = true;
  pkt.tcp.ack = reasm_.rcv_nxt();
  ++stats_.rsts_sent;
  if (hooks_.obs->trace) {
    hooks_.obs->trace->record_packet(obs::EventType::kRst, sim_.now(), pkt,
                                     "tcp", "abort");
  }
  hooks_.emit(pkt);
}

void Endpoint::send_rst_for(const net::Packet& in) {
  // RFC 793 reset generation for a segment with no connection: echo the
  // peer's ACK as our sequence when it offered one, otherwise start at 0
  // and acknowledge everything the segment occupied.
  net::Packet pkt = make_packet(0, 0);
  pkt.tcp.flags.rst = true;
  if (in.tcp.flags.ack) {
    pkt.tcp.seq = in.tcp.ack;
  } else {
    pkt.tcp.flags.ack = true;
    pkt.tcp.ack = in.tcp.seq + in.payload_bytes +
                  (in.tcp.flags.syn ? 1 : 0) + (in.tcp.flags.fin ? 1 : 0);
  }
  ++stats_.rsts_sent;
  if (hooks_.obs->trace) {
    hooks_.obs->trace->record_packet(obs::EventType::kRst, sim_.now(), pkt,
                                     "tcp", "no-connection");
  }
  hooks_.emit(pkt);
}

void Endpoint::abort() {
  if (state_ == TcpState::kClosed) return;
  // kListen never sent anything; kTimeWait's peer is already gone.
  if (state_ != TcpState::kListen && state_ != TcpState::kTimeWait) {
    send_rst(state_ == TcpState::kSynSent ? iss_ + 1 : snd_nxt_);
  }
  ++stats_.aborts;
  enter_closed(CloseReason::kAborted);
}

void Endpoint::handle_rst(const net::Packet& pkt) {
  ++stats_.rsts_received;
  switch (state_) {
    case TcpState::kClosed:
    case TcpState::kListen:
      // Nothing to tear down; never answer a RST with a RST.
      return;
    case TcpState::kTimeWait:
      // RFC 1337: ignore RSTs in TIME_WAIT (TIME-WAIT assassination).
      return;
    case TcpState::kSynSent:
      // Connection refused — but only a RST that acknowledges our SYN; a
      // stale or forged one must not kill the attempt.
      if (!pkt.tcp.flags.ack || pkt.tcp.ack != iss_ + 1) return;
      enter_closed(CloseReason::kRefused);
      return;
    default:
      enter_closed(CloseReason::kReset);
      return;
  }
}

// --- Handshake --------------------------------------------------------------

void Endpoint::listen() { set_state(TcpState::kListen); }

void Endpoint::connect() {
  set_state(TcpState::kSynSent);
  send_syn(/*ack=*/false);
  arm_handshake_timer();
}

void Endpoint::arm_handshake_timer() {
  // SYN / SYN-ACK retransmission with exponential backoff (RFC 6298 3 s
  // initial RTO); gives up — and tears the endpoint down — once the retry
  // budget is spent, so a black-holed handshake cannot wedge forever.
  if (handshake_armed_) return;
  if (handshake_attempts_ >= kMaxHandshakeAttempts) {
    ++stats_.handshake_failures;
    enter_closed(CloseReason::kHandshakeTimeout);
    return;
  }
  handshake_armed_ = true;
  const sim::SimTime delay = sim::sec(3) << std::min(handshake_attempts_, 4);
  handshake_timer_ = sim_.schedule(delay, [this]() {
    handshake_armed_ = false;
    if (established() || state_ == TcpState::kClosed) return;
    ++handshake_attempts_;
    if (handshake_attempts_ >= kMaxHandshakeAttempts) {
      ++stats_.handshake_failures;
      enter_closed(CloseReason::kHandshakeTimeout);
      return;
    }
    send_syn(/*ack=*/state_ == TcpState::kSynReceived);
    arm_handshake_timer();
  });
}

void Endpoint::close() {
  if (state_ == TcpState::kClosed || fin_pending_ || fin_sent_) return;
  if (state_ == TcpState::kListen || state_ == TcpState::kSynSent) {
    // No established peer to FIN: release everything (including a pending
    // SYN retransmission timer) and notify synchronously.
    enter_closed(CloseReason::kGraceful);
    return;
  }
  fin_pending_ = true;
  maybe_send_fin();
}

void Endpoint::maybe_send_fin() {
  // The FIN goes out only after every queued byte has been sent.
  if (!fin_pending_ || fin_sent_) return;
  if (!unsent_.empty() || !pending_writes_.empty() || write_in_kernel_) return;
  fin_sent_ = true;
  fin_pending_ = false;
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;  // the FIN occupies one sequence number
  net::Packet pkt = make_packet(0, fin_seq_);
  pkt.tcp.flags.fin = true;
  pkt.tcp.flags.ack = true;
  pkt.tcp.ack = reasm_.rcv_nxt();
  pkt.tcp.window = compute_window();
  hooks_.emit(pkt);
  if (!rto_armed_) arm_rto();
  set_state(state_ == TcpState::kCloseWait ? TcpState::kLastAck
                                           : TcpState::kFinWait1);
}

void Endpoint::handle_fin(const net::Packet& pkt) {
  if (fin_received_) {
    // Retransmitted / replayed FIN: after the first FIN was accepted,
    // rcv_nxt sits one past the FIN octet, so the replay's sequence lands
    // just below it. Re-ACK it, and in TIME_WAIT restart the 2MSL quiet
    // period (RFC 793) — the replay proves our final ACK may not have
    // landed yet.
    if (pkt.tcp.seq + pkt.payload_bytes + 1 != reasm_.rcv_nxt()) return;
    if (state_ == TcpState::kTimeWait) {
      ++stats_.time_wait_absorbed;
      schedule_time_wait_expiry();
    }
    send_ack(false);
    return;
  }
  // Accept the FIN only once all data before it has arrived.
  if (pkt.tcp.seq != reasm_.rcv_nxt() + pkt.payload_bytes) return;
  fin_received_ = true;
  reasm_ = Reassembly(pkt.tcp.seq + pkt.payload_bytes + 1);
  send_ack(false);
  switch (state_) {
    case TcpState::kEstablished:
      set_state(TcpState::kCloseWait);
      if (on_peer_fin) on_peer_fin();
      break;
    case TcpState::kFinWait1:
      // Simultaneous close: the FINs crossed. handle_ack already ran for
      // this packet, so still being in kFinWait1 means our FIN is unacked.
      set_state(TcpState::kClosing);
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
}

void Endpoint::enter_time_wait() {
  set_state(TcpState::kTimeWait);
  schedule_time_wait_expiry();
}

void Endpoint::schedule_time_wait_expiry() {
  // Events are not cancelled on restart; the generation stamp makes every
  // superseded expiry a no-op.
  const std::uint64_t gen = ++time_wait_generation_;
  sim_.schedule(kTimeWaitPeriod, [this, gen]() {
    if (state_ == TcpState::kTimeWait && time_wait_generation_ == gen) {
      enter_closed(CloseReason::kGraceful);
    }
  });
}

// --- Zero-window persist timer ----------------------------------------------

void Endpoint::arm_persist_timer() {
  if (persist_armed_) return;
  persist_armed_ = true;
  sim::SimTime delay = rtt_.rto() << std::min(persist_backoff_, 6);
  if (delay > sim::sec(60)) delay = sim::sec(60);
  persist_timer_ = sim_.schedule(delay, [this]() {
    persist_armed_ = false;
    on_persist_timeout();
  });
}

void Endpoint::cancel_persist_timer() {
  if (persist_armed_) {
    sim_.cancel(persist_timer_);
    persist_armed_ = false;
  }
  persist_backoff_ = 0;
}

void Endpoint::on_persist_timeout() {
  // Still zero-window? Send a one-byte window probe from the head of the
  // unsent queue; the receiver must answer with its current window even if
  // it cannot accept the byte.
  if (unsent_.empty() || !retx_q_.empty()) return;
  const std::uint32_t in_flight = net::seq_span(snd_una_, snd_nxt_);
  if (in_flight + unsent_.front().len <= rwnd_) {
    try_send();  // window opened while the timer was pending
    return;
  }
  TxSegment& head = unsent_.front();
  TxSegment probe;
  probe.len = 1;
  probe.push = false;
  probe.packets = 1;
  probe.truesize = os::skb_truesize(net::tcp_frame_bytes(1, ts_on_));
  txbuf_.charge(probe.truesize);
  head.len -= 1;
  probe.seq = snd_nxt_;
  if (head.len == 0) {
    txbuf_.release(head.truesize);
    probe.push = head.push;
    unsent_.pop_front();
  }
  send_segment(probe, /*retransmission=*/false);
  snd_nxt_ += 1;
  retx_q_.push_back(probe);
  flight_pkts_ += probe.packets;
  ++stats_.window_probes;
  ++persist_backoff_;
  arm_persist_timer();
}

void Endpoint::handshake_established() { cancel_handshake_timer(); }

void Endpoint::send_syn(bool ack) {
  net::Packet pkt = make_packet(0, iss_);
  pkt.tcp.flags.syn = true;
  pkt.tcp.flags.ack = ack;
  if (ack) pkt.tcp.ack = reasm_.rcv_nxt();
  pkt.tcp.timestamps = config_.timestamps;  // offer, not yet negotiated
  pkt.tcp.mss_option =
      static_cast<std::uint16_t>(net::mss_for_mtu(config_.mtu));
  pkt.tcp.wscale_present = true;
  pkt.tcp.wscale_option =
      wscale_for(rxbuf_.full_window_space(config_.adv_win_scale));
  pkt.tcp.window = std::min<std::uint32_t>(
      rxbuf_.full_window_space(config_.adv_win_scale), 65535);
  hooks_.emit(pkt);
}

void Endpoint::complete_handshake(const net::Packet& pkt) {
  ts_on_ = config_.timestamps && pkt.tcp.timestamps;
  peer_mss_option_ = pkt.tcp.mss_option ? pkt.tcp.mss_option : 536;
  // Payload per segment: bounded by our own MTU and the peer's MSS option,
  // minus per-segment option bytes.
  const std::uint32_t local = net::mss_for_mtu(config_.mtu);
  snd_mss_payload_ = std::min<std::uint32_t>(local, peer_mss_option_) -
                     (ts_on_ ? net::kTcpTimestampOptionBytes : 0);
  snd_wscale_ =
      wscale_for(rxbuf_.full_window_space(config_.adv_win_scale));
  const std::uint32_t clamp =
      pkt.tcp.wscale_present
          ? std::min<std::uint32_t>(0x3fffffffu, 65535u << snd_wscale_)
          : 65535u;
  wadv_ = WindowAdvertiser(config_.sws_round_window, clamp);
  snd_una_ = snd_nxt_ = iss_ + 1;
  ecn_epoch_end_ = snd_nxt_;  // first ECN feedback window starts here
  write_cursor_ = snd_nxt_;
  rcv_consumed_seq_ = pkt.tcp.seq + 1;  // both callers just seeded reasm_
  rwnd_ = pkt.tcp.window;
}

// --- Application writes -----------------------------------------------------

std::uint32_t Endpoint::record_truesize(std::uint32_t bytes) const {
  // truesize the record will occupy once segmented (full segments + tail).
  const std::uint32_t mss = snd_mss_payload_;
  const std::uint32_t full = bytes / mss;
  const std::uint32_t tail = bytes % mss;
  std::uint32_t ts = full * os::skb_truesize(net::tcp_frame_bytes(mss, ts_on_));
  if (tail > 0) ts += os::skb_truesize(net::tcp_frame_bytes(tail, ts_on_));
  return ts;
}

void Endpoint::app_send(std::uint32_t bytes, std::function<void()> admitted) {
  assert(bytes > 0 && bytes <= config_.sndbuf);
  pending_writes_.push_back(
      PendingWrite{bytes, std::move(admitted), sim_.now()});
  admit_pending_writes();
}

void Endpoint::admit_pending_writes() {
  if (write_in_kernel_ || pending_writes_.empty() || !can_carry_data())
    return;
  const PendingWrite& w = pending_writes_.front();
  const std::uint32_t need = record_truesize(w.bytes);
  if (txbuf_.wmem_alloc() + need > txbuf_.sndbuf() &&
      txbuf_.wmem_alloc() > 0) {
    return;  // wait for ACKs to free space (blocking write)
  }
  write_in_kernel_ = true;
  const std::uint32_t bytes = w.bytes;
  const int nsegs =
      static_cast<int>((bytes + snd_mss_payload_ - 1) / snd_mss_payload_);
  const std::uint32_t block = os::rx_data_block(net::tcp_frame_bytes(
      std::min(bytes, snd_mss_payload_), ts_on_));
  hooks_.kernel->app_write(bytes, nsegs, block, [this, bytes]() {
    write_in_kernel_ = false;
    // The connection may have been reset/aborted while the write sat in
    // the kernel; its queues (and this write) are already gone.
    if (state_ == TcpState::kClosed || pending_writes_.empty()) return;
    PendingWrite w = std::move(pending_writes_.front());
    pending_writes_.pop_front();
    if (hooks_.obs->spans) {
      write_spans_.push_back(WriteSpan{write_cursor_, write_cursor_ + bytes,
                                       w.called_at, sim_.now()});
    }
    write_cursor_ += bytes;
    enqueue_record(bytes);
    try_send();
    if (w.admitted) w.admitted();
    admit_pending_writes();
  });
}

void Endpoint::enqueue_record(std::uint32_t bytes) {
  const std::uint32_t mss = snd_mss_payload_;
  if (config_.tso && bytes > mss) {
    // Build super-segments up to tso_max; the adapter re-segments.
    std::uint32_t remaining = bytes;
    while (remaining > 0) {
      const std::uint32_t chunk = std::min(remaining, config_.tso_max);
      TxSegment seg;
      seg.len = chunk;
      seg.push = (remaining == chunk) && config_.push_per_write;
      seg.packets = (chunk + mss - 1) / mss;
      seg.truesize =
          os::skb_truesize(net::tcp_frame_bytes(chunk > mss ? mss : chunk,
                                                ts_on_)) *
          seg.packets;
      txbuf_.charge(seg.truesize);
      unsent_.push_back(seg);
      remaining -= chunk;
    }
    return;
  }
  std::uint32_t remaining = bytes;
  // Stream semantics (no per-write record boundary): top up a sub-MSS tail
  // segment left by the previous write, so Nagle never head-of-line blocks
  // the queue on an artificial record edge.
  if (!config_.push_per_write && !unsent_.empty() &&
      unsent_.back().len < mss) {
    TxSegment& tail = unsent_.back();
    const std::uint32_t delta = std::min(mss - tail.len, remaining);
    const std::uint32_t new_truesize =
        os::skb_truesize(net::tcp_frame_bytes(tail.len + delta, ts_on_));
    txbuf_.release(tail.truesize);
    txbuf_.charge(new_truesize);
    tail.len += delta;
    tail.truesize = new_truesize;
    remaining -= delta;
  }
  while (remaining > 0) {
    const std::uint32_t chunk = std::min(remaining, mss);
    TxSegment seg;
    seg.len = chunk;
    seg.push = (remaining == chunk) && config_.push_per_write;
    seg.truesize = os::skb_truesize(net::tcp_frame_bytes(chunk, ts_on_));
    txbuf_.charge(seg.truesize);
    unsent_.push_back(seg);
    remaining -= chunk;
  }
}

// --- Sender -----------------------------------------------------------------

void Endpoint::try_send() {
  if (!can_carry_data()) return;
  while (!unsent_.empty()) {
    TxSegment& seg = unsent_.front();
    const std::uint32_t budget = cc_->usable_cwnd() > flight_pkts_
                                     ? cc_->usable_cwnd() - flight_pkts_
                                     : 0;
    if (budget == 0) break;
    if (seg.packets > budget) {
      // A TSO super-segment larger than the congestion window: send what
      // the window allows now (Linux tso_fragment) and keep the rest.
      if (seg.packets == 1) break;
      const std::uint32_t take = budget * snd_mss_payload_;
      if (take == 0 || take >= seg.len) break;
      TxSegment head;
      head.len = take;
      head.push = false;
      head.packets = budget;
      head.truesize = record_truesize(take);
      txbuf_.release(seg.truesize);
      seg.len -= take;
      seg.packets = (seg.len + snd_mss_payload_ - 1) / snd_mss_payload_;
      seg.truesize = record_truesize(seg.len);
      txbuf_.charge(head.truesize + seg.truesize);
      unsent_.push_front(head);
      continue;
    }
    const std::uint32_t in_flight = net::seq_span(snd_una_, snd_nxt_);
    if (in_flight + seg.len > rwnd_) {
      // Zero-window deadlock guard: with nothing in flight there will be
      // no ACK to reopen the window — start probing (persist timer).
      if (retx_q_.empty() && in_flight == 0) arm_persist_timer();
      break;
    }
    // Nagle: hold a sub-MSS segment while data is outstanding, unless the
    // application uses write-per-record semantics (NTTCP behaviour).
    if (config_.nagle && !config_.push_per_write &&
        seg.len < snd_mss_payload_ && !retx_q_.empty()) {
      break;
    }
    seg.seq = snd_nxt_;
    cancel_persist_timer();
    send_segment(seg, /*retransmission=*/false);
    snd_nxt_ += seg.len;
    retx_q_.push_back(seg);
    flight_pkts_ += seg.packets;
    unsent_.pop_front();
  }
  maybe_send_fin();
}

void Endpoint::send_segment(TxSegment& seg, bool retransmission) {
  net::Packet pkt = make_packet(seg.len, seg.seq);
  pkt.tcp.flags.ack = true;
  pkt.tcp.ack = reasm_.rcv_nxt();
  pkt.tcp.window = compute_window();
  pkt.tcp.push = seg.push;
  pkt.tcp.is_retransmit = retransmission;
  if (config_.ecn) {
    if (seg.len > 0) pkt.ect = true;  // data travels ECN-capable
    if (cwr_pending_) {
      pkt.tcp.flags.cwr = true;
      cwr_pending_ = false;
    }
    if (echo_ece()) {
      pkt.tcp.flags.ece = true;
      ++stats_.ecn_ece_sent;
    }
  }
  if (seg.packets > 1) pkt.tcp.tso_mss = snd_mss_payload_;
  if (!retransmission) {
    seg.first_sent = sim_.now();
    stats_.bytes_sent += seg.len;
  } else {
    seg.retransmitted = true;
    ++stats_.retransmits;
  }
  stats_.segments_sent += seg.packets;
  if (hooks_.obs->trace) {
    hooks_.obs->trace->record_packet(obs::EventType::kSegTx, sim_.now(), pkt,
                                     "tcp",
                                     retransmission ? "retransmission" : "");
  }
  if (hooks_.obs->spans && seg.len > 0) {
    if (retransmission) {
      // A retransmitted segment no longer measures the clean path; drop its
      // journey (counted as aborted) rather than pollute the breakdown.
      hooks_.obs->spans->abort(pkt);
    } else {
      // Locate the application write whose bytes this segment carries; its
      // call/admit times bound the app-write stage. Writes fully behind
      // this segment's sequence are done opening journeys.
      while (!write_spans_.empty() &&
             net::seq_le(write_spans_.front().end_seq, seg.seq)) {
        write_spans_.pop_front();
      }
      if (!write_spans_.empty() &&
          net::seq_le(write_spans_.front().begin_seq, seg.seq)) {
        const WriteSpan& ws = write_spans_.front();
        hooks_.obs->spans->begin(pkt, ws.called_at, ws.done_at, sim_.now());
      }
    }
  }
  hooks_.emit(pkt);
  if (!rto_armed_) arm_rto();
  if (cwnd_trace) cwnd_trace(sim_.now(), cc_->cwnd());
}

void Endpoint::retransmit_head() {
  if (retx_q_.empty()) return;
  send_segment(retx_q_.front(), /*retransmission=*/true);
}

void Endpoint::arm_rto() {
  rto_armed_ = true;
  rto_timer_ = sim_.schedule(rtt_.rto(), [this]() {
    rto_armed_ = false;
    on_rto();
  });
}

void Endpoint::cancel_rto() {
  if (rto_armed_) {
    sim_.cancel(rto_timer_);
    rto_armed_ = false;
  }
}

void Endpoint::on_rto() {
  if (retx_q_.empty()) {
    if (fin_sent_ && net::seq_le(snd_una_, fin_seq_) &&
        state_ != TcpState::kClosed) {
      // Retransmit the FIN — boundedly. A peer that will never ACK (dead,
      // or its address black-holed) must not pin this endpoint in
      // FIN_WAIT_1 / LAST_ACK / CLOSING forever.
      if (++fin_retries_ > kMaxFinRetries) {
        abort();
        return;
      }
      ++stats_.fin_retransmits;
      net::Packet pkt = make_packet(0, fin_seq_);
      pkt.tcp.flags.fin = true;
      pkt.tcp.flags.ack = true;
      pkt.tcp.ack = reasm_.rcv_nxt();
      pkt.tcp.window = compute_window();
      pkt.tcp.is_retransmit = true;
      hooks_.emit(pkt);
      rtt_.backoff();
      arm_rto();
    }
    return;
  }
  ++stats_.timeouts;
  trace_recovery(obs::EventType::kRto);
  cc_->on_timeout(flight_pkts_);
  rtt_.backoff();
  dupacks_ = 0;
  retransmit_head();
  if (!rto_armed_) arm_rto();
}

void Endpoint::trace_recovery(obs::EventType type) {
  if (!hooks_.obs->trace) return;
  obs::TraceEvent ev;
  ev.at = sim_.now();
  ev.type = type;
  ev.src = hooks_.local_node;
  ev.dst = hooks_.remote_node;
  ev.flow = hooks_.flow;
  ev.seq = snd_una_;
  ev.len = flight_bytes();
  ev.where = "tcp";
  hooks_.obs->trace->record(ev);
}

void Endpoint::notify_if_drained() {
  if (retx_q_.empty() && unsent_.empty() && pending_writes_.empty() &&
      on_all_acked) {
    on_all_acked();
  }
}

void Endpoint::handle_ack(const net::Packet& pkt) {
  const std::uint32_t old_rwnd = rwnd_;
  rwnd_ = pkt.tcp.window;
  const net::Seq ack = pkt.tcp.ack;

  if (net::seq_gt(ack, snd_una_)) {
    // New data acknowledged.
    std::uint32_t acked_segments = 0;
    std::uint32_t freed_truesize = 0;
    bool rtt_sampled = false;
    while (!retx_q_.empty() &&
           net::seq_le(retx_q_.front().seq + retx_q_.front().len, ack)) {
      const TxSegment& seg = retx_q_.front();
      acked_segments += seg.packets;
      flight_pkts_ -= seg.packets;
      freed_truesize += seg.truesize;
      stats_.bytes_acked += seg.len;
      if (!seg.retransmitted && !rtt_sampled && !ts_on_) {
        rtt_.sample(sim_.now() - seg.first_sent);
        rtt_sampled = true;
      }
      retx_q_.pop_front();
    }
    // Byte-granular ACK landing inside a (TSO super-)segment: trim the
    // covered prefix so congestion accounting sees the acked packets.
    if (!retx_q_.empty() && net::seq_gt(ack, retx_q_.front().seq)) {
      TxSegment& f = retx_q_.front();
      const std::uint32_t covered = net::seq_span(f.seq, ack);
      const std::uint32_t old_packets = f.packets;
      const std::uint32_t old_truesize = f.truesize;
      f.seq = ack;
      f.len -= covered;
      f.packets = (f.len + snd_mss_payload_ - 1) / snd_mss_payload_;
      f.truesize = record_truesize(f.len);
      acked_segments += old_packets - f.packets;
      flight_pkts_ -= old_packets - f.packets;
      freed_truesize += old_truesize > f.truesize
                            ? old_truesize - f.truesize
                            : 0;
      stats_.bytes_acked += covered;
    }
    if (ts_on_ && pkt.tcp.ts_ecr > 0) {
      rtt_.sample(sim_.now() - pkt.tcp.ts_ecr);
    }
    snd_una_ = ack;
    txbuf_.release(freed_truesize);

    if (cc_->in_recovery()) {
      if (net::seq_ge(ack, recover_)) {
        cc_->on_recovery_exit();
        dupacks_ = 0;
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        cc_->on_partial_ack();
        retransmit_head();
      }
    } else {
      cc_->on_ack(acked_segments, sim_.now());
      dupacks_ = 0;
    }

    if (config_.ecn) {
      // Accumulate this window's mark fraction; an ECE-flagged ACK marks
      // the segments it newly acknowledges. When the ACK clock crosses the
      // epoch boundary, hand the tallies to the strategy (classic: at most
      // one multiplicative decrease per window; DCTCP: alpha update plus a
      // proportional cut) and open the next window at snd_nxt.
      ecn_acked_segs_ += acked_segments;
      if (pkt.tcp.flags.ece) ecn_marked_segs_ += acked_segments;
      if (net::seq_ge(ack, ecn_epoch_end_)) {
        if (cc_->on_ecn_window(ecn_acked_segs_, ecn_marked_segs_,
                               sim_.now())) {
          cwr_pending_ = true;
          ++stats_.ecn_cwnd_reductions;
        }
        ecn_acked_segs_ = 0;
        ecn_marked_segs_ = 0;
        ecn_epoch_end_ = snd_nxt_;
      }
    }

    cancel_rto();
    if (!retx_q_.empty() || (fin_sent_ && net::seq_le(ack, fin_seq_))) {
      arm_rto();
    }
    if (fin_sent_ && net::seq_gt(ack, fin_seq_)) {
      // Our FIN is acknowledged.
      if (state_ == TcpState::kFinWait1) {
        set_state(TcpState::kFinWait2);
      } else if (state_ == TcpState::kClosing) {
        // Simultaneous close completes: both FINs flew and are acked.
        enter_time_wait();
        notify_if_drained();
        return;
      } else if (state_ == TcpState::kLastAck) {
        enter_closed(CloseReason::kGraceful);
        notify_if_drained();
        return;
      }
    }
    admit_pending_writes();
    try_send();
    notify_if_drained();
    return;
  }

  // RFC 5681 duplicate ACK: no payload, no SYN/FIN, no window change, and
  // outstanding data. Window updates must not trigger fast retransmit.
  if (ack == snd_una_ && !retx_q_.empty() && pkt.payload_bytes == 0 &&
      pkt.tcp.window == old_rwnd) {
    ++stats_.dupacks_received;
    ++dupacks_;
    if (cc_->in_recovery()) {
      cc_->on_dupack_in_recovery();
      try_send();
    } else if (dupacks_ == 3) {
      ++stats_.fast_retransmits;
      trace_recovery(obs::EventType::kFastRetransmit);
      recover_ = snd_nxt_;
      cc_->on_fast_retransmit(flight_pkts_);
      retransmit_head();
      cancel_rto();
      arm_rto();
    }
    return;
  }
  // Window update or stale ACK: the rwnd_ update above may unblock sends.
  if (rwnd_ > old_rwnd) cancel_persist_timer();
  try_send();
}

// --- Receiver ---------------------------------------------------------------

std::uint32_t Endpoint::compute_window() {
  const std::uint32_t space = rxbuf_.window_space(config_.adv_win_scale);
  std::uint32_t est = rcv_mss_est_;
  if (config_.rcv_mss_bias != 0) {
    const std::int64_t biased =
        static_cast<std::int64_t>(est) + config_.rcv_mss_bias;
    est = biased < 1 ? 1u : static_cast<std::uint32_t>(biased);
  }
  std::uint32_t win = wadv_.select(space, est, reasm_.rcv_nxt());
  // Window-scale granularity: values are transmitted as win >> shift.
  win = (win >> snd_wscale_) << snd_wscale_;
  last_adv_win_ = win;
  return win;
}

void Endpoint::handle_data(const net::Packet& pkt) {
  ++stats_.segments_received;
  if (ts_on_ && pkt.tcp.timestamps) last_ts_val_ = pkt.tcp.ts_val;

  // Reject data beyond the advertised right edge (zero-window probes land
  // here); answer with the current window so the prober unsticks.
  if (wadv_.has_advertised() &&
      net::seq_ge(pkt.tcp.seq, wadv_.rcv_adv())) {
    ++stats_.out_of_window;
    hooks_.obs->drop(obs::EventType::kSegDrop, sim_.now(), pkt, "tcp",
                     "out-of-window");
    send_ack(false);
    return;
  }
  if (reasm_.is_duplicate(pkt.tcp.seq, pkt.payload_bytes)) {
    ++stats_.dupacks_sent;
    send_ack(false);
    return;
  }
  if (!rxbuf_.charge_frame(pkt.frame_bytes, pkt.payload_bytes)) {
    ++stats_.rcv_buffer_drops;
    hooks_.obs->drop(obs::EventType::kSegDrop, sim_.now(), pkt, "tcp",
                     "sockbuf-full");
    send_ack(false);  // re-advertise the (closed) window
    return;
  }
  if (pkt.corrupted) ++stats_.corrupted_delivered;
  if (config_.ecn) {
    if (pkt.ce) ++stats_.ecn_ce_received;
    if (config_.cc == CcAlgorithm::kDctcp) {
      // DCTCP receiver state machine: on a CE-state flip, immediately ACK
      // everything before this segment under the OLD state so the sender's
      // per-window mark tally stays exact, then latch the new state.
      if (pkt.ce != dctcp_ce_state_) {
        if (delack_count_ > 0) send_ack(false);
        dctcp_ce_state_ = pkt.ce;
      }
    } else {
      // Classic RFC 3168: latch ECE on CE and hold it until CWR arrives.
      if (pkt.tcp.flags.cwr) ece_pending_ = false;
      if (pkt.ce) ece_pending_ = true;
    }
  }
  if (hooks_.obs->trace) {
    hooks_.obs->trace->record_packet(obs::EventType::kSegRx, sim_.now(), pkt,
                                     "tcp");
  }
  // TCP accepted the segment: the rx-stack stage ends here and the journey
  // waits in app-read (reassembly + reader wakeup + copy) until consumed.
  if (hooks_.obs->spans) {
    hooks_.obs->spans->mark(pkt, obs::Stage::kAppRead, sim_.now());
  }
  // Linux tcp_measure_rcv_mss: track the largest segment recently seen.
  rcv_mss_est_ = std::max(rcv_mss_est_, pkt.payload_bytes);

  const std::uint32_t delivered = reasm_.offer(pkt.tcp.seq, pkt.payload_bytes);
  if (delivered > 0) {
    stats_.bytes_delivered += delivered;
    payload_ready_ += delivered;
    maybe_read();
    ++delack_count_;
    if (delack_count_ >= config_.delack_segments) {
      send_ack(false);
    } else {
      schedule_delayed_ack();
    }
  } else {
    // Out of order: immediate duplicate ACK (fast-retransmit trigger).
    ++stats_.dupacks_sent;
    send_ack(false);
  }
}

void Endpoint::schedule_delayed_ack() {
  if (delack_armed_) return;
  delack_armed_ = true;
  delack_timer_ = sim_.schedule(kDelackTimeout, [this]() {
    delack_armed_ = false;
    if (delack_count_ > 0) send_ack(false);
  });
}

bool Endpoint::echo_ece() const {
  if (!config_.ecn) return false;
  if (config_.cc == CcAlgorithm::kDctcp) return dctcp_ce_state_;
  return ece_pending_;
}

void Endpoint::send_ack(bool window_update) {
  delack_count_ = 0;
  if (delack_armed_) {
    sim_.cancel(delack_timer_);
    delack_armed_ = false;
  }
  net::Packet pkt = make_packet(0, snd_nxt_);
  pkt.tcp.flags.ack = true;
  pkt.tcp.ack = reasm_.rcv_nxt();
  pkt.tcp.window = compute_window();
  if (echo_ece()) {
    pkt.tcp.flags.ece = true;
    ++stats_.ecn_ece_sent;
  }
  ++stats_.acks_sent;
  if (window_update) {
    ++stats_.window_update_acks;
    if (hooks_.obs->trace) {
      hooks_.obs->trace->record_packet(obs::EventType::kWindowUpdate,
                                       sim_.now(), pkt, "tcp");
    }
  }
  hooks_.emit(pkt);
}

void Endpoint::maybe_read() {
  if (!config_.app_reader || reading_ || payload_ready_ == 0) return;
  const auto chunk = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(payload_ready_, config_.read_chunk));
  reading_ = true;
  hooks_.kernel->app_read(chunk, [this, chunk]() {
    reading_ = false;
    payload_ready_ -= chunk;
    rxbuf_.release_payload(chunk);
    stats_.bytes_consumed += chunk;
    rcv_consumed_seq_ += chunk;
    // Close journeys before on_consumed: a ping-pong app replies inside
    // that callback at this same instant, and the reply's journey must not
    // observe an unfinished inbound one.
    if (hooks_.obs->spans) {
      hooks_.obs->spans->finish_consumed(hooks_.flow, hooks_.remote_node,
                                         rcv_consumed_seq_, sim_.now());
    }
    if (on_consumed) on_consumed(chunk);
    maybe_window_update();
    maybe_read();
  });
}

void Endpoint::maybe_window_update() {
  // Advertise freed space if it moves the edge by >= 2 * MSS-estimate or
  // reopens a closed window (Linux tcp_data_snd_check heuristics).
  const std::uint32_t space = rxbuf_.window_space(config_.adv_win_scale);
  std::uint32_t candidate = std::min(space, wadv_.max_window());
  if (config_.sws_round_window && rcv_mss_est_ > 0) {
    candidate = (candidate / rcv_mss_est_) * rcv_mss_est_;
  }
  const bool reopened = last_adv_win_ == 0 && candidate > 0;
  if (reopened || candidate >= last_adv_win_ + 2 * rcv_mss_est_) {
    send_ack(true);
  }
}

// --- Invariants -------------------------------------------------------------

std::string Endpoint::invariant_violation() const {
  // The cached flight size must equal a full recount in every state.
  std::uint32_t recount = 0;
  for (const TxSegment& seg : retx_q_) recount += seg.packets;
  if (recount != flight_pkts_) {
    return "cached flight " + std::to_string(flight_pkts_) +
           " packets != retransmission queue's " + std::to_string(recount);
  }
  // Pre-sequence-space states have nothing to check yet.
  if (state_ == TcpState::kClosed || state_ == TcpState::kListen ||
      state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    return {};
  }
  if (net::seq_gt(snd_una_, snd_nxt_)) {
    return "snd_una " + std::to_string(snd_una_) + " ahead of snd_nxt " +
           std::to_string(snd_nxt_);
  }
  const bool fin_outstanding =
      fin_sent_ && net::seq_le(snd_una_, fin_seq_);
  if (!retx_q_.empty()) {
    if (retx_q_.front().seq != snd_una_) {
      return "retransmission queue head " +
             std::to_string(retx_q_.front().seq) + " != snd_una " +
             std::to_string(snd_una_);
    }
    net::Seq expect = snd_una_;
    for (const TxSegment& seg : retx_q_) {
      if (seg.seq != expect) {
        return "retransmission queue gap at " + std::to_string(seg.seq) +
               " (expected " + std::to_string(expect) + ")";
      }
      expect = seg.seq + seg.len;
    }
    const net::Seq data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
    if (expect != data_end) {
      return "retransmission queue ends at " + std::to_string(expect) +
             ", not at " + std::to_string(data_end);
    }
  } else {
    const std::uint32_t span = net::seq_span(snd_una_, snd_nxt_);
    if (span != 0 && !(fin_outstanding && span == 1)) {
      return "unacked span of " + std::to_string(span) +
             " bytes with an empty retransmission queue";
    }
  }
  // Exactly-once delivery accounting.
  if (stats_.bytes_acked > stats_.bytes_sent) {
    return "acked " + std::to_string(stats_.bytes_acked) +
           " bytes > sent " + std::to_string(stats_.bytes_sent);
  }
  if (stats_.bytes_consumed > stats_.bytes_delivered) {
    return "consumed " + std::to_string(stats_.bytes_consumed) +
           " bytes > delivered " + std::to_string(stats_.bytes_delivered);
  }
  if (payload_ready_ != stats_.bytes_delivered - stats_.bytes_consumed) {
    return "payload_ready " + std::to_string(payload_ready_) +
           " != delivered - consumed";
  }
  std::string reasm = reasm_.invariant_violation();
  if (!reasm.empty()) return "reassembly: " + reasm;
  // FIN / state-machine legality.
  if (fin_sent_ && (state_ == TcpState::kEstablished ||
                    state_ == TcpState::kCloseWait)) {
    return "FIN sent but state still carries data";
  }
  if (state_ == TcpState::kFinWait2 && fin_outstanding) {
    return "FIN_WAIT_2 entered with our FIN unacknowledged";
  }
  if (fin_received_ &&
      (state_ == TcpState::kEstablished || state_ == TcpState::kFinWait1 ||
       state_ == TcpState::kFinWait2)) {
    return "peer FIN processed but state never advanced";
  }
  return {};
}

std::string Endpoint::stuck_violation(sim::SimTime now) const {
  sim::SimTime budget = 0;
  switch (state_) {
    case TcpState::kSynSent:
    case TcpState::kSynReceived:
      budget = kHandshakeStateBudget;
      break;
    case TcpState::kFinWait1:
    case TcpState::kLastAck:
    case TcpState::kClosing:
    case TcpState::kTimeWait:
      budget = kTeardownStateBudget;
      break;
    default:
      // kClosed/kListen/kEstablished/kFinWait2/kCloseWait may legally
      // persist: no local timer is obliged to move them.
      return {};
  }
  const sim::SimTime in_state = now - state_entered_at_;
  if (in_state <= budget) return {};
  return std::string("endpoint stuck in ") + state_name(state_) + " for " +
         std::to_string(sim::to_seconds(in_state)) + " s (budget " +
         std::to_string(sim::to_seconds(budget)) + " s)";
}

// --- Demux ------------------------------------------------------------------

void Endpoint::on_packet(const net::Packet& pkt) {
  // RSTs short-circuit every state's normal processing.
  if (pkt.tcp.flags.rst) {
    handle_rst(pkt);
    return;
  }
  switch (state_) {
    case TcpState::kListen:
      if (pkt.tcp.flags.syn && !pkt.tcp.flags.ack) {
        reasm_ = Reassembly(pkt.tcp.seq + 1);
        // Record negotiated parameters now; established on the final ACK.
        complete_handshake(pkt);
        set_state(TcpState::kSynReceived);
        send_syn(/*ack=*/true);
        arm_handshake_timer();
      }
      return;
    case TcpState::kSynSent:
      if (pkt.tcp.flags.syn && pkt.tcp.flags.ack) {
        reasm_ = Reassembly(pkt.tcp.seq + 1);
        complete_handshake(pkt);
        last_ts_val_ = pkt.tcp.ts_val;
        set_state(TcpState::kEstablished);
        handshake_established();
        send_ack(false);
        if (on_established) on_established();
        try_send();
      }
      return;
    case TcpState::kSynReceived:
      if (pkt.tcp.flags.ack && !pkt.tcp.flags.syn) {
        set_state(TcpState::kEstablished);
        handshake_established();
        rwnd_ = pkt.tcp.window;
        if (on_established) on_established();
        try_send();
      }
      return;
    case TcpState::kEstablished:
    case TcpState::kFinWait1:
    case TcpState::kFinWait2:
    case TcpState::kCloseWait:
    case TcpState::kLastAck:
    case TcpState::kClosing:
    case TcpState::kTimeWait:
      break;
    case TcpState::kClosed:
      // RFC 793: a live segment reaching a closed endpoint earns a RST so
      // the peer's retransmissions die quickly instead of timing out.
      send_rst_for(pkt);
      return;
  }

  if (pkt.tcp.flags.fin) {
    if (pkt.payload_bytes > 0) handle_data(pkt);
    if (pkt.tcp.flags.ack) handle_ack(pkt);
    handle_fin(pkt);
    return;
  }
  if (pkt.payload_bytes > 0) {
    handle_data(pkt);
    // Piggybacked ACK processing.
    if (pkt.tcp.flags.ack) handle_ack(pkt);
  } else if (pkt.tcp.flags.ack) {
    handle_ack(pkt);
  }
}

void Endpoint::register_metrics(obs::Registry& reg,
                                const std::string& prefix) const {
  auto field = [&](const char* name,
                   std::uint64_t EndpointStats::* member) {
    reg.counter(prefix + "/" + name,
                [this, member] { return stats_.*member; });
  };
  field("segments_sent", &EndpointStats::segments_sent);
  field("segments_received", &EndpointStats::segments_received);
  field("bytes_sent", &EndpointStats::bytes_sent);
  field("bytes_acked", &EndpointStats::bytes_acked);
  field("bytes_delivered", &EndpointStats::bytes_delivered);
  field("bytes_consumed", &EndpointStats::bytes_consumed);
  field("retransmits", &EndpointStats::retransmits);
  field("fast_retransmits", &EndpointStats::fast_retransmits);
  field("timeouts", &EndpointStats::timeouts);
  field("dupacks_received", &EndpointStats::dupacks_received);
  field("dupacks_sent", &EndpointStats::dupacks_sent);
  field("acks_sent", &EndpointStats::acks_sent);
  field("window_update_acks", &EndpointStats::window_update_acks);
  field("rcv_buffer_drops", &EndpointStats::rcv_buffer_drops);
  field("window_probes", &EndpointStats::window_probes);
  field("out_of_window", &EndpointStats::out_of_window);
  field("corrupted_delivered", &EndpointStats::corrupted_delivered);
  reg.gauge(prefix + "/cwnd_segments",
            [this] { return static_cast<double>(cwnd_segments()); });
  reg.gauge(prefix + "/flight_bytes",
            [this] { return static_cast<double>(flight_bytes()); });
  reg.gauge(prefix + "/srtt_us",
            [this] { return sim::to_seconds(srtt()) * 1e6; });
  // Algorithm-specific surface, registered only off the default path so
  // classic NewReno snapshots (and the goldens hashed from them) stay
  // byte-identical.
  if (config_.cc != CcAlgorithm::kNewReno) {
    reg.gauge(prefix + "/cc_state",
              [this] { return static_cast<double>(cc_state()); });
  }
  if (config_.ecn) {
    field("ecn_ce_received", &EndpointStats::ecn_ce_received);
    field("ecn_ece_sent", &EndpointStats::ecn_ece_sent);
    field("ecn_cwnd_reductions", &EndpointStats::ecn_cwnd_reductions);
  }
}

void Endpoint::register_lifecycle_metrics(obs::Registry& reg,
                                          const std::string& prefix) const {
  auto field = [&](const char* name,
                   std::uint64_t EndpointStats::* member) {
    reg.counter(prefix + "/" + name,
                [this, member] { return stats_.*member; });
  };
  field("rsts_sent", &EndpointStats::rsts_sent);
  field("rsts_received", &EndpointStats::rsts_received);
  field("aborts", &EndpointStats::aborts);
  field("handshake_failures", &EndpointStats::handshake_failures);
  field("fin_retransmits", &EndpointStats::fin_retransmits);
  field("time_wait_absorbed", &EndpointStats::time_wait_absorbed);
}

}  // namespace xgbe::tcp
