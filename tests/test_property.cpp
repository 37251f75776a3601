// Property-based sweeps over the model invariants.
#include <gtest/gtest.h>

#include "analysis/aimd.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "hw/pcix.hpp"
#include "hw/presets.hpp"
#include "net/headers.hpp"
#include "os/kmalloc.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

// --- Allocator invariants ----------------------------------------------------

class KmallocSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KmallocSweep, BlockInvariants) {
  const std::uint32_t size = GetParam();
  const std::uint32_t block = os::kmalloc_block(size);
  // Power of two.
  EXPECT_EQ(block & (block - 1), 0u);
  // Large enough (except beyond the largest cache).
  if (size <= os::kKmallocMaxBlock) {
    EXPECT_GE(block, size);
  }
  // Minimal: half the block would not fit.
  if (block > os::kKmallocMinBlock && size <= os::kKmallocMaxBlock) {
    EXPECT_LT(block / 2, size);
  }
  // truesize strictly exceeds the frame it accounts for.
  if (size >= 64 && size <= 16000) {
    EXPECT_GT(os::skb_truesize(size), size);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KmallocSweep,
                         ::testing::Values(1u, 31u, 32u, 33u, 60u, 1518u,
                                           2048u, 2049u, 4095u, 4096u, 7502u,
                                           8174u, 8192u, 8193u, 9014u, 16018u,
                                           131072u, 200000u));

TEST(KmallocProperties, TruesizeIsMonotonicInFrameSize) {
  // A bigger frame can never be charged less against the socket: truesize
  // (and the underlying data block) is non-decreasing across the whole
  // range the adapters can produce.
  std::uint32_t prev_truesize = 0;
  std::uint32_t prev_block = 0;
  for (std::uint32_t frame = 1; frame <= 17000; ++frame) {
    const std::uint32_t block = os::rx_data_block(frame);
    const std::uint32_t truesize = os::skb_truesize(frame);
    EXPECT_GE(block, prev_block) << "frame=" << frame;
    EXPECT_GE(truesize, prev_truesize) << "frame=" << frame;
    EXPECT_EQ(truesize, block + os::kSkbStructBytes) << "frame=" << frame;
    prev_block = block;
    prev_truesize = truesize;
  }
}

TEST(KmallocProperties, BlockRoundingAtTheMtuBoundaries) {
  // The three MTUs the paper sweeps (§3.3, Fig 5), as full Ethernet frames
  // with the driver's 16-byte skb pad:
  //   8160 -> 8174-byte frame -> 8190 bytes needed -> 8 KB block, 2 spare,
  //   9000 -> 9014-byte frame -> spills into the 16 KB block (~7 KB slack),
  //  16000 -> 16014-byte frame -> fills the 16 KB block snugly again.
  const std::uint32_t frame8160 = 8160 + net::kEthHeaderBytes;
  const std::uint32_t frame9000 = 9000 + net::kEthHeaderBytes;
  const std::uint32_t frame16000 = 16000 + net::kEthHeaderBytes;
  EXPECT_EQ(os::rx_data_block(frame8160), 8192u);
  EXPECT_EQ(os::rx_data_block(frame9000), 16384u);
  EXPECT_EQ(os::rx_data_block(frame16000), 16384u);
  // The exact cliff: frame + pad crosses 8192 at a 8176-byte frame.
  EXPECT_EQ(os::rx_data_block(8192u - os::kSkbDataPad), 8192u);
  EXPECT_EQ(os::rx_data_block(8192u - os::kSkbDataPad + 1), 16384u);
  // The waste the paper quantifies: "roughly 7000 bytes" for 9000-MTU,
  // nearly none for 8160 or 16000.
  EXPECT_LT(os::rx_alloc_waste(frame8160), 16u);
  EXPECT_GT(os::rx_alloc_waste(frame9000), 7000u);
  EXPECT_LT(os::rx_alloc_waste(frame9000), 7500u);
  EXPECT_LT(os::rx_alloc_waste(frame16000), 512u);
}

TEST(KmallocProperties, AllocWasteIsConsistentWithTheBlock) {
  // waste == block - (frame + pad), and the block is minimal: using half
  // the block would not have fit the frame.
  for (std::uint32_t frame = 60; frame <= 16014; frame += 7) {
    const std::uint32_t need = frame + os::kSkbDataPad;
    const std::uint32_t block = os::rx_data_block(frame);
    const std::uint32_t waste = os::rx_alloc_waste(frame);
    ASSERT_EQ(waste + need, block) << "frame=" << frame;
    EXPECT_LT(waste, block) << "frame=" << frame;
    if (block > os::kKmallocMinBlock) {
      EXPECT_LT(block / 2, need) << "frame=" << frame;
    }
  }
}

// --- AIMD model invariants ---------------------------------------------------

struct AimdCase {
  double rtt_s;
  std::uint32_t mss;
};

class AimdSweep : public ::testing::TestWithParam<AimdCase> {};

TEST_P(AimdSweep, RecoveryMonotonicInRttAndMss) {
  const auto [rtt, mss] = GetParam();
  const double t = analysis::recovery_time_s(10e9, rtt, mss);
  EXPECT_GT(t, 0.0);
  // Longer RTT -> strictly longer recovery.
  EXPECT_GT(analysis::recovery_time_s(10e9, rtt * 2, mss), t);
  // Bigger MSS -> strictly shorter recovery.
  EXPECT_LT(analysis::recovery_time_s(10e9, rtt, mss * 2), t);
  // More bandwidth -> longer recovery (bigger window to regain).
  EXPECT_GT(analysis::recovery_time_s(20e9, rtt, mss), t);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AimdSweep,
    ::testing::Values(AimdCase{0.001, 1460}, AimdCase{0.02, 1460},
                      AimdCase{0.12, 1460}, AimdCase{0.18, 1460},
                      AimdCase{0.02, 8960}, AimdCase{0.18, 8960}));

// --- PCI-X model invariants --------------------------------------------------

class PcixFrameSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PcixFrameSweep, ServiceDecomposition) {
  const std::uint32_t bytes = GetParam();
  const hw::PcixSpec s = hw::presets::pe2650().pcix;
  const auto t = hw::dma_read_service_time(s, bytes, 512);
  // Exactly data time + bursts * overhead + descriptor.
  const auto expect =
      sim::transfer_time(bytes, s.rate_bps()) +
      static_cast<sim::SimTime>(hw::burst_count(bytes, 512)) *
          s.burst_overhead +
      s.descriptor_overhead;
  EXPECT_EQ(t, expect);
  // Reads are never cheaper than writes of the same size.
  EXPECT_GE(t, hw::dma_write_service_time(s, bytes));
}

INSTANTIATE_TEST_SUITE_P(Frames, PcixFrameSweep,
                         ::testing::Values(64u, 512u, 513u, 1518u, 8178u,
                                           9018u, 16018u));

// --- End-to-end throughput invariants ----------------------------------------

double nttcp_gbps(const core::TuningProfile& tuning, std::uint32_t payload) {
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = payload;
  opt.count = 800;
  return tools::run_nttcp(tb, conn, a, b, opt).throughput_gbps();
}

class BufferMonotonicity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BufferMonotonicity, ThroughputNonDecreasingInRcvbuf) {
  // At the window-limited payload, growing the socket buffers never hurts.
  const std::uint32_t payload = GetParam();
  double prev = 0.0;
  for (std::uint32_t buf : {65536u, 131072u, 262144u, 524288u}) {
    core::TuningProfile t = core::TuningProfile::with_uniprocessor(9000);
    t.rcvbuf = buf;
    t.sndbuf = buf;
    const double gbps = nttcp_gbps(t, payload);
    EXPECT_GE(gbps, prev * 0.95) << "buf=" << buf;
    prev = gbps;
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, BufferMonotonicity,
                         ::testing::Values(8000u, 8948u, 16344u));

class MmrbcMonotonicity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MmrbcMonotonicity, ThroughputNonDecreasingInMmrbc) {
  const std::uint32_t payload = GetParam();
  double prev = 0.0;
  for (std::uint32_t mmrbc : {512u, 1024u, 2048u, 4096u}) {
    core::TuningProfile t = core::TuningProfile::with_big_windows(9000);
    t.mmrbc = mmrbc;
    const double gbps = nttcp_gbps(t, payload);
    EXPECT_GE(gbps, prev * 0.95) << "mmrbc=" << mmrbc;
    prev = gbps;
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, MmrbcMonotonicity,
                         ::testing::Values(8000u, 16344u));

// Loss seeds: for any seed, all data is eventually delivered exactly once.
class LossSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossSeedSweep, ReliableDeliveryUnderLoss) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b).set_fault_plan(
      fault::FaultPlan{}.with_seed(GetParam()).with_loss(0.01));
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 600;
  opt.timeout = sim::sec(120);
  auto r = tools::run_nttcp(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed) << "seed " << GetParam();
  EXPECT_EQ(r.bytes, 8948ull * 600ull);
  EXPECT_EQ(conn.server->stats().bytes_consumed, 8948ull * 600ull);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 2026u));

}  // namespace
}  // namespace xgbe
