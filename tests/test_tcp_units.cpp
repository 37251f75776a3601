// Unit tests for TCP building blocks: RTT estimation, congestion control,
// window advertising, reassembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "tcp/cwnd.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/rtt.hpp"
#include "tcp/window.hpp"

namespace xgbe::tcp {
namespace {

TEST(Rtt, FirstSampleInitializes) {
  RttEstimator r;
  EXPECT_FALSE(r.has_estimate());
  EXPECT_EQ(r.rto(), RttEstimator::kInitialRto);
  r.sample(sim::msec(100));
  EXPECT_TRUE(r.has_estimate());
  EXPECT_EQ(r.srtt(), sim::msec(100));
  EXPECT_EQ(r.rttvar(), sim::msec(50));
}

TEST(Rtt, ConvergesToSteadyRtt) {
  RttEstimator r;
  for (int i = 0; i < 100; ++i) r.sample(sim::msec(10));
  EXPECT_NEAR(static_cast<double>(r.srtt()),
              static_cast<double>(sim::msec(10)), sim::msec(1));
  EXPECT_LT(r.rttvar(), sim::msec(1));
}

TEST(Rtt, RtoClampedToMinimum) {
  RttEstimator r;
  for (int i = 0; i < 50; ++i) r.sample(sim::usec(20));
  EXPECT_EQ(r.rto(), RttEstimator::kMinRto);  // Linux 200 ms floor
}

TEST(Rtt, BackoffDoublesAndResets) {
  RttEstimator r;
  r.sample(sim::msec(100));
  const auto base = r.rto();
  r.backoff();
  EXPECT_EQ(r.rto(), 2 * base);
  r.backoff();
  EXPECT_EQ(r.rto(), 4 * base);
  r.sample(sim::msec(100));
  // Backoff cleared; rttvar has decayed slightly, so rto is at or below
  // the original base.
  EXPECT_LE(r.rto(), base);
  EXPECT_GE(r.rto(), base / 2);
}

TEST(Rtt, MinRttTracksFloor) {
  RttEstimator r;
  r.sample(sim::msec(30));
  r.sample(sim::msec(10));
  r.sample(sim::msec(50));
  EXPECT_EQ(r.min_rtt(), sim::msec(10));
}

TEST(Cwnd, SlowStartDoublesPerWindow) {
  CongestionControl cc(2);
  EXPECT_TRUE(cc.in_slow_start());
  cc.on_ack(2);  // acking a full window doubles it
  EXPECT_EQ(cc.cwnd(), 4u);
  cc.on_ack(4);
  EXPECT_EQ(cc.cwnd(), 8u);
}

TEST(Cwnd, CongestionAvoidanceLinear) {
  CongestionControl cc(2);
  cc.on_fast_retransmit(20);  // ssthresh = 10
  cc.on_recovery_exit();
  EXPECT_EQ(cc.cwnd(), 10u);
  EXPECT_FALSE(cc.in_slow_start());
  cc.on_ack(10);  // one window's worth of ACKs -> +1
  EXPECT_EQ(cc.cwnd(), 11u);
  cc.on_ack(11);
  EXPECT_EQ(cc.cwnd(), 12u);
}

TEST(Cwnd, FastRetransmitHalvesWindow) {
  CongestionControl cc(2);
  cc.on_ack(62);  // grow to 64 in slow start
  EXPECT_EQ(cc.cwnd(), 64u);
  EXPECT_TRUE(cc.on_fast_retransmit(64));
  EXPECT_TRUE(cc.in_recovery());
  EXPECT_EQ(cc.ssthresh(), 32u);
  EXPECT_EQ(cc.cwnd(), 32u);
  EXPECT_EQ(cc.usable_cwnd(), 35u);  // +3 dupacks inflation
  EXPECT_FALSE(cc.on_fast_retransmit(64));  // no re-entry
}

TEST(Cwnd, RecoveryInflationAndExit) {
  CongestionControl cc(2);
  cc.on_ack(30);
  cc.on_fast_retransmit(32);
  cc.on_dupack_in_recovery();
  cc.on_dupack_in_recovery();
  EXPECT_EQ(cc.usable_cwnd(), cc.cwnd() + 5);
  cc.on_recovery_exit();
  EXPECT_FALSE(cc.in_recovery());
  EXPECT_EQ(cc.usable_cwnd(), cc.cwnd());
  EXPECT_EQ(cc.cwnd(), cc.ssthresh());
}

TEST(Cwnd, TimeoutCollapsesToOne) {
  CongestionControl cc(2);
  cc.on_ack(62);
  cc.on_timeout(64);
  EXPECT_EQ(cc.cwnd(), 1u);
  EXPECT_EQ(cc.ssthresh(), 32u);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(Cwnd, SsthreshNeverBelowTwo) {
  CongestionControl cc(2);
  cc.on_timeout(1);
  EXPECT_EQ(cc.ssthresh(), 2u);
}

TEST(Cwnd, ClampStopsGrowth) {
  CongestionControl cc(2);
  cc.set_clamp(16);
  cc.on_ack(100);
  EXPECT_EQ(cc.cwnd(), 16u);
}

TEST(Cwnd, GrowthSuspendedInRecovery) {
  CongestionControl cc(2);
  cc.on_ack(30);
  cc.on_fast_retransmit(32);
  const auto w = cc.cwnd();
  cc.on_ack(10);
  EXPECT_EQ(cc.cwnd(), w);
}

TEST(WindowAdvertiser, RoundsDownToMss) {
  WindowAdvertiser w(true, 1 << 30);
  // The paper's §3.5.1 example: 33000 bytes available, 8948-byte MSS
  // estimate -> 26844 advertised.
  EXPECT_EQ(w.select(33000, 8948, 0), 26844u);
}

TEST(WindowAdvertiser, NoRoundingWhenDisabled) {
  WindowAdvertiser w(false, 1 << 30);
  EXPECT_EQ(w.select(33000, 8948, 0), 33000u);
}

TEST(WindowAdvertiser, NeverShrinksRightEdge) {
  WindowAdvertiser w(true, 1 << 30);
  EXPECT_EQ(w.select(50000, 1000, 0), 50000u);
  // Free space collapsed but the edge was already promised.
  EXPECT_EQ(w.select(10000, 1000, 20000), 30000u);
}

TEST(WindowAdvertiser, EdgeAdvancesWithRcvNxt) {
  WindowAdvertiser w(true, 1 << 30);
  w.select(50000, 1000, 0);
  // rcv_nxt advanced past old edge; full space available again.
  EXPECT_EQ(w.select(50000, 1000, 60000), 50000u);
  EXPECT_EQ(w.rcv_adv(), 110000u);
}

TEST(WindowAdvertiser, ClampAppliesBeforeRounding) {
  WindowAdvertiser w(true, 65535);
  EXPECT_EQ(w.select(1000000, 8948, 0), 62636u);  // 7 * 8948
}

TEST(SenderWindow, PaperFig8Example) {
  // Receiver advertises 26844 (rounded with MSS 8948); the sender's own MSS
  // is 8960, leaving 2 * 8960 = 17920 usable — "nearly 50% smaller than the
  // actual available socket memory" (§3.5.1).
  EXPECT_EQ(sender_usable_window(26844, 8960), 17920u);
}

TEST(Reassembly, InOrderDelivery) {
  Reassembly r(100);
  EXPECT_EQ(r.offer(100, 50), 50u);
  EXPECT_EQ(r.rcv_nxt(), 150u);
  EXPECT_EQ(r.offer(150, 50), 50u);
  EXPECT_EQ(r.rcv_nxt(), 200u);
}

TEST(Reassembly, OutOfOrderHeldThenDrained) {
  Reassembly r(0);
  EXPECT_EQ(r.offer(100, 100), 0u);  // hole at 0
  EXPECT_EQ(r.ooo_bytes(), 100u);
  EXPECT_EQ(r.offer(0, 100), 200u);  // fills the hole, drains the range
  EXPECT_EQ(r.rcv_nxt(), 200u);
  EXPECT_EQ(r.ooo_bytes(), 0u);
}

TEST(Reassembly, DuplicateDetection) {
  Reassembly r(0);
  r.offer(0, 100);
  EXPECT_TRUE(r.is_duplicate(0, 100));
  EXPECT_TRUE(r.is_duplicate(50, 50));
  EXPECT_FALSE(r.is_duplicate(50, 100));
  r.offer(200, 100);
  EXPECT_TRUE(r.is_duplicate(200, 100));
  EXPECT_FALSE(r.is_duplicate(150, 100));
}

TEST(Reassembly, OverlapTrimming) {
  Reassembly r(0);
  r.offer(0, 100);
  EXPECT_EQ(r.offer(50, 100), 50u);  // first half duplicate
  EXPECT_EQ(r.rcv_nxt(), 150u);
}

TEST(Reassembly, CoalescesAdjacentRanges) {
  Reassembly r(0);
  r.offer(100, 100);
  r.offer(300, 100);
  EXPECT_EQ(r.ooo_ranges(), 2u);
  r.offer(200, 100);  // bridges the two
  EXPECT_EQ(r.ooo_ranges(), 1u);
  EXPECT_EQ(r.offer(0, 100), 400u);
}

// Property: any permutation of segment arrival delivers every byte once.
class ReassemblyShuffle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyShuffle, AllBytesDeliveredExactlyOnce) {
  sim::Rng rng(GetParam());
  constexpr std::uint32_t kSegments = 64;
  constexpr std::uint32_t kSegLen = 1000;
  std::vector<std::uint32_t> order(kSegments);
  for (std::uint32_t i = 0; i < kSegments; ++i) order[i] = i;
  for (std::uint32_t i = kSegments - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  Reassembly r(0);
  std::uint64_t delivered = 0;
  for (std::uint32_t idx : order) {
    delivered += r.offer(idx * kSegLen, kSegLen);
    // Duplicates must deliver nothing.
    delivered += r.offer(idx * kSegLen, kSegLen);
  }
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kSegments) * kSegLen);
  EXPECT_EQ(r.rcv_nxt(), kSegments * kSegLen);
  EXPECT_EQ(r.ooo_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyShuffle,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 9999u));

// The out-of-order bookkeeping Reassembly replaced, kept as the reference
// model: every call walks all out-of-order ranges.
class LinearScanReassembly {
 public:
  explicit LinearScanReassembly(net::Seq rcv_nxt) : rcv_nxt_(rcv_nxt) {}

  net::Seq rcv_nxt() const { return rcv_nxt_; }
  std::uint32_t ooo_bytes() const { return ooo_bytes_; }
  std::size_t ooo_ranges() const { return ooo_.size(); }

  bool is_duplicate(net::Seq seq, std::uint32_t len) const {
    if (net::seq_le(seq + len, rcv_nxt_)) return true;
    for (const auto& [start, rlen] : ooo_) {
      if (net::seq_le(start, seq) && net::seq_le(seq + len, start + rlen))
        return true;
    }
    return false;
  }

  std::uint32_t offer(net::Seq seq, std::uint32_t len) {
    if (len == 0) return 0;
    net::Seq end = seq + len;
    if (net::seq_lt(seq, rcv_nxt_)) {
      if (net::seq_le(end, rcv_nxt_)) return 0;
      seq = rcv_nxt_;
    }
    if (net::seq_gt(seq, rcv_nxt_)) {
      net::Seq nstart = seq;
      net::Seq nend = end;
      for (auto it = ooo_.begin(); it != ooo_.end();) {
        const net::Seq s = it->first;
        const net::Seq e = it->first + it->second;
        if (net::seq_le(s, nend) && net::seq_le(nstart, e)) {
          nstart = net::seq_min(nstart, s);
          nend = net::seq_max(nend, e);
          ooo_bytes_ -= it->second;
          it = ooo_.erase(it);
        } else {
          ++it;
        }
      }
      ooo_[nstart] = net::seq_span(nstart, nend);
      ooo_bytes_ += net::seq_span(nstart, nend);
      return 0;
    }
    std::uint32_t delivered = net::seq_span(rcv_nxt_, end);
    rcv_nxt_ = end;
    for (auto it = ooo_.begin(); it != ooo_.end();) {
      if (net::seq_gt(it->first, rcv_nxt_)) break;
      const net::Seq e = it->first + it->second;
      if (net::seq_gt(e, rcv_nxt_)) {
        delivered += net::seq_span(rcv_nxt_, e);
        rcv_nxt_ = e;
      }
      ooo_bytes_ -= it->second;
      it = ooo_.erase(it);
    }
    return delivered;
  }

 private:
  net::Seq rcv_nxt_;
  std::map<net::Seq, std::uint32_t, SeqLess> ooo_;
  std::uint32_t ooo_bytes_ = 0;
};

// Seeded random offers (in order, out of order, overlapping, touching and
// duplicate) against the linear-scan reference, starting 64 KB below the
// 2^32 wrap so the queued ranges straddle it.
class ReassemblyEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReassemblyEquivalence, MatchesLinearScanAcrossTheWrap) {
  sim::Rng rng(GetParam());
  constexpr net::Seq kStart = 0u - 65536u;
  constexpr std::uint32_t kWindow = 256 * 1024;
  Reassembly fast(kStart);
  LinearScanReassembly ref(kStart);
  std::vector<std::pair<net::Seq, std::uint32_t>> recent;  // past offers
  std::size_t peak_ranges = 0;
  bool wrapped = false;
  auto pick_recent = [&]() -> std::pair<net::Seq, std::uint32_t> {
    return recent[rng.next_below(recent.size())];
  };
  for (int step = 0; step < 20000; ++step) {
    const net::Seq base = ref.rcv_nxt();
    net::Seq seq = base;
    std::uint32_t len = 1 + static_cast<std::uint32_t>(rng.next_below(9000));
    switch (recent.empty() ? 0 : rng.next_below(6)) {
      case 0:  // in order, sometimes reaching back over old data
        if (rng.chance(0.5)) {
          seq = base - static_cast<net::Seq>(rng.next_below(3000));
        }
        break;
      case 1:  // out of order, anywhere in the window
      case 2:
        seq = base + 1 + static_cast<net::Seq>(rng.next_below(kWindow));
        break;
      case 3: {  // overlapping an earlier offer
        const auto [s, l] = pick_recent();
        seq = s + static_cast<net::Seq>(rng.next_below(l));
        break;
      }
      case 4: {  // touching an earlier offer, at its end or its start
        const auto [s, l] = pick_recent();
        seq = rng.chance(0.5) ? s + l : s - len;
        break;
      }
      default:  // exact duplicate of an earlier offer
        std::tie(seq, len) = pick_recent();
        break;
    }
    ASSERT_EQ(fast.is_duplicate(seq, len), ref.is_duplicate(seq, len))
        << "step " << step << " seq " << seq << " len " << len;
    ASSERT_EQ(fast.offer(seq, len), ref.offer(seq, len))
        << "step " << step << " seq " << seq << " len " << len;
    ASSERT_EQ(fast.rcv_nxt(), ref.rcv_nxt());
    ASSERT_EQ(fast.ooo_ranges(), ref.ooo_ranges());
    ASSERT_EQ(fast.ooo_bytes(), ref.ooo_bytes());
    ASSERT_EQ(fast.invariant_violation(), "");
    // Probe coverage around the window: answers agree only if the ranges
    // themselves agree.
    for (int probe = 0; probe < 4; ++probe) {
      const net::Seq at =
          base - 4096 + static_cast<net::Seq>(rng.next_below(kWindow + 8192));
      const auto plen = static_cast<std::uint32_t>(rng.next_below(4000));
      ASSERT_EQ(fast.is_duplicate(at, plen), ref.is_duplicate(at, plen))
          << "step " << step << " probe " << at << " len " << plen;
    }
    if (recent.size() < 64) {
      recent.emplace_back(seq, len);
    } else {
      recent[rng.next_below(recent.size())] = {seq, len};
    }
    peak_ranges = std::max(peak_ranges, ref.ooo_ranges());
    wrapped = wrapped || ref.rcv_nxt() < kStart;  // crossed 2^32
  }
  EXPECT_TRUE(wrapped);
  EXPECT_GT(peak_ranges, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u));

// Property: window rounding loses less than one MSS, never goes negative,
// and is idempotent.
struct WindowCase {
  std::uint32_t space;
  std::uint32_t mss;
};

class WindowRounding : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowRounding, LosesLessThanOneMss) {
  const auto [space, mss] = GetParam();
  WindowAdvertiser w(true, 1 << 30);
  const std::uint32_t win = w.select(space, mss, 0);
  EXPECT_LE(win, space);
  EXPECT_EQ(win % mss, 0u);
  EXPECT_LT(space - win, mss);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WindowRounding,
    ::testing::Values(WindowCase{65535, 1448}, WindowCase{65535, 8948},
                      WindowCase{48000, 8948}, WindowCase{196608, 8948},
                      WindowCase{196608, 1448}, WindowCase{33000, 8948},
                      WindowCase{8947, 8948}, WindowCase{8948, 8948},
                      WindowCase{1000000, 15948}));

}  // namespace
}  // namespace xgbe::tcp
