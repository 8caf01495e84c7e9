// Integration tests for the memory controller (routing, gating, release,
// CPU priority, migration, metrics, and the access monitor's occupancy
// probe).
#include "core/memory_controller.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "mem/power_policy.h"
#include "sim/simulator.h"

namespace dmasim {
namespace {

MemorySystemConfig SmallConfig() {
  MemorySystemConfig config;
  config.chips = 4;
  config.pages_per_chip = 16;
  config.page_bytes = 8192;
  config.bus_count = 3;
  config.chunk_bytes = 512;
  return config;
}

class ControllerFixture : public ::testing::Test {
 protected:
  enum class PolicyStyle { kDynamic, kAlwaysActive };

  ControllerFixture() = default;

  void Build(MemorySystemConfig config,
             PolicyStyle style = PolicyStyle::kDynamic) {
    config_ = config;
    if (style == PolicyStyle::kDynamic) {
      policy_ = std::make_unique<DynamicThresholdPolicy>();
    } else {
      policy_ = std::make_unique<AlwaysActivePolicy>();
    }
    controller_ = std::make_unique<MemoryController>(&simulator_, config_,
                                                     policy_.get());
  }

  Simulator simulator_;
  MemorySystemConfig config_;
  std::unique_ptr<LowPowerPolicy> policy_;
  std::unique_ptr<MemoryController> controller_;
};

TEST_F(ControllerFixture, ConfigDerivedQuantities) {
  const MemorySystemConfig config = SmallConfig();
  // Memory at 3.2 GB/s, buses at 1/3 of that: k = 3.
  EXPECT_EQ(config.AlignmentQuorum(), 3);
  // T = one bus slot for a 512-byte chunk = 12/8 * 512 cycles.
  EXPECT_EQ(config.RequestTime(), 512 * 12 / 8 * 625);
  EXPECT_EQ(config.TotalPages(), 64u);
}

TEST_F(ControllerFixture, QuorumScalesWithBandwidthRatio) {
  MemorySystemConfig config = SmallConfig();
  config.bus_bandwidth = 3.2e9;  // Ratio 1.
  EXPECT_EQ(config.AlignmentQuorum(), 1);
  config.bus_bandwidth = 1.6e9;  // Ratio 2.
  EXPECT_EQ(config.AlignmentQuorum(), 2);
  config.bus_bandwidth = 0.5e9;  // Ratio 6.4.
  EXPECT_EQ(config.AlignmentQuorum(), 7);
}

TEST_F(ControllerFixture, PagesStripedAcrossChips) {
  Build(SmallConfig());
  EXPECT_EQ(controller_->ChipOf(0), 0);
  EXPECT_EQ(controller_->ChipOf(1), 1);
  EXPECT_EQ(controller_->ChipOf(4), 0);
  EXPECT_EQ(controller_->ChipOf(63), 3);
}

TEST_F(ControllerFixture, SingleTransferCompletesWithBusPacing) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  Tick completed = -1;
  controller_->StartDmaTransfer(0, /*page=*/5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { completed = when; });
  simulator_.RunUntil(kMillisecond);
  // 16 chunks paced at one bus slot each; the last chunk is issued at
  // 15 * slot and completes after its memory service time.
  const Tick slot = controller_->bus(0).SlotTime();
  const Tick service = config_.power.ServiceTime(ByteCount(512)).value();
  EXPECT_EQ(completed, 15 * slot + service);
  EXPECT_EQ(controller_->stats().transfers_completed, 1u);
  EXPECT_EQ(controller_->InFlightTransfers(), 0u);
}

TEST_F(ControllerFixture, LoneTransferUtilizationIsOneThird) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  for (int i = 0; i < 8; ++i) {
    controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
    simulator_.RunUntil(simulator_.Now() + 2 * kMillisecond);
  }
  EXPECT_NEAR(controller_->UtilizationFactor(), 1.0 / 3.0, 0.02);
}

TEST_F(ControllerFixture, ThreeAlignedTransfersReachFullUtilization) {
  // Three transfers from three buses to the same chip, started together on
  // an always-active chip: the chip serves a chunk from each bus per slot.
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  for (int bus = 0; bus < 3; ++bus) {
    controller_->StartDmaTransfer(bus, 5, 8192, DmaKind::kNetwork, {});
  }
  simulator_.RunUntil(kMillisecond);
  EXPECT_GT(controller_->UtilizationFactor(), 0.95);
}

TEST_F(ControllerFixture, GatingGathersQuorumAndAligns) {
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 50.0;
  Build(config);  // Dynamic policy: chips rest in powerdown -> gating.

  // Three transfers to one chip from three buses, staggered by 20 us --
  // within the budget, so they must gather and release as a quorum.
  for (int bus = 0; bus < 3; ++bus) {
    simulator_.ScheduleAt(static_cast<Tick>(bus) * 20 * kMicrosecond,
                          [this, bus]() {
                            controller_->StartDmaTransfer(
                                bus, 5, 8192, DmaKind::kNetwork, {});
                          });
  }
  simulator_.RunUntil(5 * kMillisecond);
  EXPECT_EQ(controller_->stats().transfers_completed, 3u);
  EXPECT_EQ(controller_->aligner().TotalGated(), 3u);
  EXPECT_EQ(controller_->aligner().ReleasedByQuorum(), 1u);
  EXPECT_GT(controller_->UtilizationFactor(), 0.9);
  // Only one wakeup: the whole batch rode a single activation.
  EXPECT_EQ(controller_->chip(controller_->ChipOf(5)).stats().wakeups, 1u);
}

TEST_F(ControllerFixture, DeadlineReleasesLoneGatedTransfer) {
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 5.0;  // Budget 38 us, above the gating floor.
  Build(config);
  Tick completed = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { completed = when; });
  simulator_.RunUntil(50 * kMillisecond);
  EXPECT_GT(completed, 0);
  EXPECT_EQ(controller_->aligner().TotalGated(), 1u);
  EXPECT_EQ(controller_->aligner().ReleasedBySlack(), 1u);
  // The gating delay is bounded by the transfer's budget:
  // mu * T * 16 chunks.
  const Tick budget = static_cast<Tick>(5.0 * config.RequestTime() * 16);
  const Tick unmanaged = 15 * controller_->bus(0).SlotTime() +
                         config.power.ServiceTime(ByteCount(512)).value();
  EXPECT_LE(completed,
            budget + unmanaged + 6100 * kNanosecond /* wake */ +
                config.dma.ta.epoch_length);
}

TEST_F(ControllerFixture, TinyBudgetSkipsGatingEntirely) {
  // Cost-benefit guard: a delay budget below min_gating_budget cannot
  // gather companions, so the transfer is not delayed at all.
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 1.0;  // Budget ~7.7 us < 25 us floor.
  Build(config);
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
  simulator_.RunUntil(5 * kMillisecond);
  EXPECT_EQ(controller_->aligner().TotalGated(), 0u);
  EXPECT_EQ(controller_->stats().transfers_completed, 1u);
}

TEST_F(ControllerFixture, ZeroMuBehavesLikeBaseline) {
  MemorySystemConfig ta_config = SmallConfig();
  ta_config.dma.ta.enabled = true;
  ta_config.dma.ta.mu = 0.0;
  Build(ta_config);
  Tick ta_completed = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { ta_completed = when; });
  simulator_.RunUntil(5 * kMillisecond);

  Simulator baseline_sim;
  DynamicThresholdPolicy baseline_policy;
  MemoryController baseline(&baseline_sim, SmallConfig(), &baseline_policy);
  Tick baseline_completed = -1;
  baseline.StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                            [&](Tick when) { baseline_completed = when; });
  baseline_sim.RunUntil(5 * kMillisecond);

  EXPECT_EQ(ta_completed, baseline_completed);
}

TEST_F(ControllerFixture, CpuAccessServedWithPriorityAndCounted) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  Tick cpu_done = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
  controller_->CpuAccess(5, 64, [&](Tick when) { cpu_done = when; });
  simulator_.RunUntil(kMillisecond);
  EXPECT_GT(cpu_done, 0);
  EXPECT_EQ(controller_->stats().cpu_accesses, 1u);
  // CPU access may wait at most one chunk service before being served.
  EXPECT_LE(cpu_done, config_.power.ServiceTime(ByteCount(512)).value() +
                          config_.power.ServiceTime(ByteCount(64)).value());
}

TEST_F(ControllerFixture, CpuAccessReleasesGatedChip) {
  MemorySystemConfig config = SmallConfig();
  config.dma.ta.enabled = true;
  config.dma.ta.mu = 1000.0;  // Essentially unbounded budget.
  Build(config);
  Tick completed = -1;
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork,
                                [&](Tick when) { completed = when; });
  simulator_.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(completed, -1);  // Still gated.
  // A CPU access to the same chip activates it; the gated transfer rides
  // along instead of waiting for its own activation later.
  controller_->CpuAccess(5, 64);
  simulator_.RunUntil(simulator_.Now() + 2 * kMillisecond);
  EXPECT_GT(completed, 0);
}

TEST_F(ControllerFixture, MigrationMovesPageAndChargesEnergy) {
  MemorySystemConfig config = SmallConfig();
  config.dma.pl.enabled = true;
  config.dma.pl.interval = kMillisecond;
  config.dma.pl.min_hot_count = 1;
  Build(config);

  // Make page 5 (chip 1) clearly hot.
  for (int i = 0; i < 20; ++i) {
    simulator_.ScheduleAt(static_cast<Tick>(i) * 40 * kMicrosecond, [this]() {
      controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
    });
  }
  simulator_.RunUntil(3 * kMillisecond);
  EXPECT_GT(controller_->stats().migrations, 0u);
  EXPECT_EQ(controller_->ChipOf(5), 0);  // Moved to the hot chip.
  EnergyBreakdown energy = controller_->CollectEnergy();
  EXPECT_GT(energy.Of(EnergyBucket::kMigration).joules(), 0.0);
}

TEST_F(ControllerFixture, TransfersFollowMigratedPages) {
  MemorySystemConfig config = SmallConfig();
  config.dma.pl.enabled = true;
  config.dma.pl.interval = kMillisecond;
  config.dma.pl.min_hot_count = 1;
  Build(config);
  // Spread the transfers across the 1 ms migration interval so some run
  // before the page moves and some after.
  for (int i = 0; i < 20; ++i) {
    simulator_.ScheduleAt(static_cast<Tick>(i) * 120 * kMicrosecond, [this]() {
      controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
    });
  }
  simulator_.RunUntil(4 * kMillisecond);
  const auto& per_chip = controller_->TransfersPerChip();
  // Transfers before migration hit chip 1, afterwards chip 0.
  EXPECT_GT(per_chip[0], 0u);
  EXPECT_GT(per_chip[1], 0u);
  EXPECT_EQ(per_chip[0] + per_chip[1] + per_chip[2] + per_chip[3],
            controller_->stats().transfers_started);
}

TEST_F(ControllerFixture, HottestChipShare) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  controller_->StartDmaTransfer(0, 0, 8192, DmaKind::kNetwork, {});
  controller_->StartDmaTransfer(0, 0, 8192, DmaKind::kNetwork, {});
  controller_->StartDmaTransfer(0, 1, 8192, DmaKind::kNetwork, {});
  controller_->StartDmaTransfer(0, 2, 8192, DmaKind::kNetwork, {});
  EXPECT_DOUBLE_EQ(controller_->HottestChipShare(), 0.5);
}

TEST_F(ControllerFixture, EnergyAggregatesAcrossChips) {
  Build(SmallConfig());
  simulator_.RunUntil(kMillisecond);
  const EnergyBreakdown energy = controller_->CollectEnergy();
  // Four idle chips in powerdown for 1 ms.
  EXPECT_NEAR(
      energy.Total().joules(),
      4.0 * EnergyOver(MilliwattPower(3.0), Ticks(kMillisecond)).joules(),
      1e-9);
}

TEST_F(ControllerFixture, ChunkServiceTimeTracked) {
  Build(SmallConfig(), PolicyStyle::kAlwaysActive);
  controller_->StartDmaTransfer(0, 5, 8192, DmaKind::kNetwork, {});
  simulator_.RunUntil(kMillisecond);
  EXPECT_EQ(controller_->ChunkServiceTime().Count(), 16u);
  // Each chunk: issued, then served within one memory service time.
  EXPECT_NEAR(controller_->ChunkServiceTime().Mean(),
              static_cast<double>(config_.power.ServiceTime(ByteCount(512)).value()), 1.0);
}

// --- Occupancy probe ---------------------------------------------------------

// A monitor with a 10 us probe cadence over one region and room for a
// single split: the only single-page region after a probe is the page of
// the first transfer that probe observed, which exposes the order.
MemorySystemConfig ProbeConfig() {
  MemorySystemConfig config = SmallConfig();
  config.monitor.enabled = true;
  config.monitor.sampling_interval = 10 * kMicrosecond;
  config.monitor.min_regions = 1;
  config.monitor.max_regions = 3;
  return config;
}

// One 512-byte chunk: done within the first microsecond.
constexpr std::int64_t kShortBytes = 512;
// 128 chunks at one bus slot each: in flight for ~61 us.
constexpr std::int64_t kLongBytes = 65536;

bool IsolatedPage(const RegionMonitor& monitor, std::uint64_t page) {
  for (const MonitorRegion& region : monitor.regions()) {
    if (region.start == page && region.end == page + 1) return true;
  }
  return false;
}

TEST_F(ControllerFixture, ProbeNeverObservesTransferReleasedBeforeIt) {
  Build(ProbeConfig(), PolicyStyle::kAlwaysActive);
  bool done = false;
  controller_->StartDmaTransfer(0, /*page=*/5, kShortBytes, DmaKind::kNetwork,
                                [&](Tick) { done = true; });
  simulator_.RunUntil(10 * kMicrosecond);
  ASSERT_TRUE(done);
  const MonitorStats& stats = controller_->monitor()->stats();
  EXPECT_EQ(stats.probes, 1u);
  EXPECT_EQ(stats.observations, 0u);
  EXPECT_EQ(stats.splits, 0u);
  EXPECT_EQ(controller_->monitor()->regions().size(), 1u);
}

TEST_F(ControllerFixture, ProbeObservesInPoolSlotOrderNotStartOrder) {
  Build(ProbeConfig(), PolicyStyle::kAlwaysActive);
  // A takes slot 0 and B slot 1; A completes, so C, started later than
  // B, recycles slot 0. The probe must observe C before B.
  controller_->StartDmaTransfer(0, /*page=*/7, kShortBytes, DmaKind::kNetwork,
                                {});
  controller_->StartDmaTransfer(1, /*page=*/20, kLongBytes, DmaKind::kNetwork,
                                {});
  simulator_.RunUntil(5 * kMicrosecond);
  ASSERT_EQ(controller_->InFlightTransfers(), 1u);
  controller_->StartDmaTransfer(2, /*page=*/40, kLongBytes, DmaKind::kNetwork,
                                {});
  simulator_.RunUntil(10 * kMicrosecond);

  const MonitorStats& stats = controller_->monitor()->stats();
  EXPECT_EQ(stats.observations, 2u);
  EXPECT_EQ(stats.splits, 1u);  // The budget allows only the first.
  EXPECT_TRUE(IsolatedPage(*controller_->monitor(), 40));
  EXPECT_FALSE(IsolatedPage(*controller_->monitor(), 20));
}

TEST_F(ControllerFixture, TransferStartedAfterProbeAtSameTickWaitsForNext) {
  Build(ProbeConfig(), PolicyStyle::kAlwaysActive);
  // Scheduled after the controller's probe for the same tick, so it runs
  // after that probe.
  simulator_.ScheduleAt(10 * kMicrosecond, [this]() {
    controller_->StartDmaTransfer(0, /*page=*/9, kLongBytes,
                                  DmaKind::kNetwork, {});
  });
  simulator_.RunUntil(10 * kMicrosecond);
  const MonitorStats& stats = controller_->monitor()->stats();
  EXPECT_EQ(stats.probes, 1u);
  EXPECT_EQ(stats.observations, 0u);
  simulator_.RunUntil(20 * kMicrosecond);
  EXPECT_EQ(stats.probes, 2u);
  EXPECT_EQ(stats.observations, 1u);
  EXPECT_TRUE(IsolatedPage(*controller_->monitor(), 9));
}

TEST_F(ControllerFixture, ProbesCountTicksNotObservations) {
  Build(ProbeConfig(), PolicyStyle::kAlwaysActive);
  for (int bus = 0; bus < 3; ++bus) {
    controller_->StartDmaTransfer(bus, /*page=*/static_cast<std::uint64_t>(bus),
                                  kLongBytes, DmaKind::kNetwork, {});
  }
  simulator_.RunUntil(50 * kMicrosecond);
  const MonitorStats& stats = controller_->monitor()->stats();
  EXPECT_EQ(stats.probes, 5u);
  // Each transfer counts once, although every probe finds it in flight.
  EXPECT_EQ(stats.observations, 3u);
}

}  // namespace
}  // namespace dmasim
