// Tests for DMA-TA's temporal aligner (gathering and release rules).
#include "core/temporal_aligner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "io/dma_transfer.h"

namespace dmasim {
namespace {

constexpr Tick kT = 480000;  // One 512-byte bus slot (ps).

TemporalAlignmentConfig EnabledConfig(double mu = 10.0) {
  TemporalAlignmentConfig config;
  config.enabled = true;
  config.mu = mu;
  return config;
}

// Mirrors MemoryController::DeliverChunk: every arriving DMA-memory
// request credits the slack account before the gating decision.
TemporalAligner::GateResult CreditAndGate(TemporalAligner& aligner, int chip,
                                          DmaTransfer* transfer,
                                          std::int64_t chunk_bytes, Tick now) {
  aligner.slack().CreditArrival();
  return aligner.Gate(chip, transfer, chunk_bytes, now);
}

DmaTransfer MakeTransfer(std::uint64_t id, int bus,
                         std::int64_t bytes = 8192) {
  DmaTransfer transfer;
  transfer.id = id;
  transfer.bus_id = bus;
  transfer.total_bytes = bytes;
  // The bus has issued the first request (512 B here, or the whole of a
  // smaller transfer) before the controller asks DMA-TA to gate it; Gate
  // checks that lockstep state.
  transfer.issued_bytes = std::min<std::int64_t>(bytes, 512);
  return transfer;
}

TEST(TemporalAlignerTest, RejectsMoreThanSixtyFourBuses) {
  // Quorum tracking packs distinct-bus membership into a 64-bit mask
  // keyed by bus id; the constructor must refuse configurations the mask
  // cannot represent instead of silently aliasing bus 64 onto bit 0.
  EXPECT_DEATH(TemporalAligner(EnabledConfig(), /*chips=*/4, /*buses=*/65,
                               /*k=*/3, kT),
               "precondition violated");
}

TEST(TemporalAlignerTest, AcceptsExactlySixtyFourBuses) {
  TemporalAligner aligner(EnabledConfig(), /*chips=*/4, /*buses=*/64, /*k=*/3,
                          kT);
  DmaTransfer transfer = MakeTransfer(1, /*bus=*/63);
  CreditAndGate(aligner, 0, &transfer, 512, /*now=*/0);
  EXPECT_EQ(aligner.TotalPending(), 1);
}

TEST(TemporalAlignerTest, GateBuffersAndBlocks) {
  TemporalAligner aligner(EnabledConfig(), /*chips=*/4, /*buses=*/3, /*k=*/3,
                          kT);
  DmaTransfer transfer = MakeTransfer(1, 0);
  const auto result = CreditAndGate(aligner, 2, &transfer, 512, /*now=*/0);
  EXPECT_FALSE(result.release_now);
  EXPECT_TRUE(transfer.blocked);
  EXPECT_TRUE(aligner.HasGated(2));
  EXPECT_EQ(aligner.PendingFor(2), 1);
  EXPECT_EQ(aligner.TotalPending(), 1);
  EXPECT_EQ(aligner.TotalGated(), 1u);
}

TEST(TemporalAlignerTest, DeadlineIsTransferBudget) {
  // Budget = mu * T * (number of DMA-memory requests in the transfer).
  TemporalAligner aligner(EnabledConfig(/*mu=*/2.0), 4, 3, 3, kT);
  DmaTransfer transfer = MakeTransfer(1, 0, /*bytes=*/8192);
  const auto result = CreditAndGate(aligner, 0, &transfer, 512, /*now=*/1000);
  // 8192 / 512 = 16 requests -> budget = 2 * T * 16.
  EXPECT_EQ(result.deadline, 1000 + 2 * kT * 16);
}

TEST(TemporalAlignerTest, QuorumFromDistinctBusesReleases) {
  TemporalAligner aligner(EnabledConfig(), 4, 3, 3, kT);
  DmaTransfer t0 = MakeTransfer(1, 0);
  DmaTransfer t1 = MakeTransfer(2, 1);
  DmaTransfer t2 = MakeTransfer(3, 2);
  EXPECT_FALSE(CreditAndGate(aligner, 0, &t0, 512, 0).release_now);
  EXPECT_FALSE(CreditAndGate(aligner, 0, &t1, 512, 10).release_now);
  EXPECT_TRUE(CreditAndGate(aligner, 0, &t2, 512, 20).release_now);

  const auto taken = aligner.TakeGated(0);
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_EQ(aligner.TotalPending(), 0);
  EXPECT_EQ(aligner.ReleasedByQuorum(), 1u);
}

TEST(TemporalAlignerTest, SameBusDoesNotFormQuorum) {
  TemporalAligner aligner(EnabledConfig(), 4, 3, 3, kT);
  DmaTransfer t0 = MakeTransfer(1, 1);
  DmaTransfer t1 = MakeTransfer(2, 1);
  DmaTransfer t2 = MakeTransfer(3, 1);
  EXPECT_FALSE(CreditAndGate(aligner, 0, &t0, 512, 0).release_now);
  EXPECT_FALSE(CreditAndGate(aligner, 0, &t1, 512, 0).release_now);
  EXPECT_FALSE(CreditAndGate(aligner, 0, &t2, 512, 0).release_now);
}

TEST(TemporalAlignerTest, BufferCapForcesRelease) {
  TemporalAligner aligner(EnabledConfig(), 4, 3, /*k=*/3, kT);
  // Same bus so no quorum; gather_depth + k = 6 forces release.
  std::vector<DmaTransfer> transfers;
  transfers.reserve(6);
  for (int i = 0; i < 6; ++i) transfers.push_back(MakeTransfer(i + 1, 0));
  bool released = false;
  for (int i = 0; i < 6; ++i) {
    released = CreditAndGate(aligner, 0, &transfers[i], 512, 0).release_now;
  }
  EXPECT_TRUE(released);
}

TEST(TemporalAlignerTest, DeadlineExpiryReleases) {
  TemporalAligner aligner(EnabledConfig(/*mu=*/1.0), 4, 3, 3, kT);
  DmaTransfer transfer = MakeTransfer(1, 0, /*bytes=*/512);  // 1 request.
  const auto result = CreditAndGate(aligner, 0, &transfer, 512, 0);
  EXPECT_FALSE(result.release_now);
  EXPECT_FALSE(aligner.ShouldRelease(0, result.deadline - 1));
  EXPECT_TRUE(aligner.ShouldRelease(0, result.deadline));
}

TEST(TemporalAlignerTest, ZeroMuReleasesImmediately) {
  TemporalAligner aligner(EnabledConfig(/*mu=*/0.0), 4, 3, 3, kT);
  DmaTransfer transfer = MakeTransfer(1, 0);
  // Slack is zero (exhausted) and the deadline is `now`.
  EXPECT_TRUE(aligner.Gate(0, &transfer, 512, 0).release_now);
}

TEST(TemporalAlignerTest, EpochDebitsAndReleasesExhaustedChips) {
  TemporalAlignmentConfig config = EnabledConfig(/*mu=*/0.5);
  config.epoch_length = 1000 * kT;  // Huge epoch: drains slack fast.
  TemporalAligner aligner(config, 4, 3, 3, kT);
  // Build a little slack, then gate one transfer.
  for (int i = 0; i < 4; ++i) aligner.slack().CreditArrival();
  DmaTransfer transfer = MakeTransfer(1, 0);
  EXPECT_FALSE(CreditAndGate(aligner, 1, &transfer, 512, 0).release_now);
  const auto to_release = aligner.OnEpoch(/*now=*/1);
  ASSERT_EQ(to_release.size(), 1u);
  EXPECT_EQ(to_release[0], 1);
}

TEST(TemporalAlignerTest, EpochWithNothingPendingReleasesNothing) {
  TemporalAligner aligner(EnabledConfig(), 4, 3, 3, kT);
  EXPECT_TRUE(aligner.OnEpoch(0).empty());
}

TEST(TemporalAlignerTest, CpuAccessDebitsSlack) {
  TemporalAligner aligner(EnabledConfig(/*mu=*/1.0), 4, 3, 3, kT);
  for (int i = 0; i < 100; ++i) aligner.slack().CreditArrival();
  const double before = aligner.slack().slack();
  DmaTransfer transfer = MakeTransfer(1, 0);
  aligner.Gate(2, &transfer, 512, 0);  // No extra credit: `before` holds.
  aligner.OnCpuAccess(2, /*service_time=*/Ticks(2000));
  EXPECT_DOUBLE_EQ(aligner.slack().slack(), before - 2000.0);
  // CPU access to a chip without gated requests changes nothing.
  const double after = aligner.slack().slack();
  aligner.OnCpuAccess(3, Ticks(2000));
  EXPECT_DOUBLE_EQ(aligner.slack().slack(), after);
}

TEST(TemporalAlignerTest, BufferOccupancyTracksPaperBound) {
  // Section 4.1.1: with 8-byte requests, 3 buses, and 32 chips the buffer
  // needs at most 3 * 8 * 32 = 768 bytes. Our cap is per chip:
  // (gather_depth + k) requests of 8 bytes.
  TemporalAligner aligner(EnabledConfig(), 32, 3, 3, /*t_request=*/7500);
  std::vector<DmaTransfer> transfers;
  transfers.reserve(32 * 5);
  for (int chip = 0; chip < 32; ++chip) {
    for (int i = 0; i < 5; ++i) {
      transfers.push_back(MakeTransfer(
          static_cast<std::uint64_t>(chip * 5 + i + 1), /*bus=*/0, 8));
    }
  }
  for (int chip = 0; chip < 32; ++chip) {
    for (int i = 0; i < 5; ++i) {
      CreditAndGate(aligner, chip,
                    &transfers[static_cast<std::size_t>(chip * 5 + i)], 8, 0);
    }
  }
  EXPECT_LE(aligner.MaxBufferedBytes(), 32 * 6 * 8);
  EXPECT_EQ(aligner.MaxBufferedBytes(), 32 * 5 * 8);
}

TEST(TemporalAlignerTest, TakeGatedClearsBuffer) {
  TemporalAligner aligner(EnabledConfig(), 4, 3, 3, kT);
  DmaTransfer t0 = MakeTransfer(1, 0);
  DmaTransfer t1 = MakeTransfer(2, 1);
  CreditAndGate(aligner, 0, &t0, 512, 0);
  CreditAndGate(aligner, 0, &t1, 512, 5);
  const auto taken = aligner.TakeGated(0);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].transfer->id, 1u);
  EXPECT_EQ(taken[0].gated_at, 0);
  EXPECT_EQ(taken[1].gated_at, 5);
  EXPECT_FALSE(aligner.HasGated(0));
  EXPECT_TRUE(aligner.TakeGated(0).empty());
}

TEST(TemporalAlignerTest, GatherDepthFactorDeepensQuorum) {
  TemporalAlignmentConfig config = EnabledConfig();
  config.gather_depth_factor = 2.0;
  TemporalAligner aligner(config, 4, 3, /*k=*/3, kT);
  // Three distinct buses alone no longer release; six requests do.
  std::vector<DmaTransfer> transfers;
  transfers.reserve(6);
  for (int i = 0; i < 6; ++i) {
    transfers.push_back(MakeTransfer(i + 1, i % 3));
  }
  bool released = false;
  for (int i = 0; i < 5; ++i) {
    released = CreditAndGate(aligner, 0, &transfers[i], 512, 0).release_now;
    EXPECT_FALSE(released) << "released too early at " << i;
  }
  EXPECT_TRUE(CreditAndGate(aligner, 0, &transfers[5], 512, 0).release_now);
}

}  // namespace
}  // namespace dmasim
