// End-to-end tests of the runtime invariant auditor: clean simulations
// pass every registered invariant at level 2, and a deliberately seeded
// fault (a chip model that skips the nap resync delay) is caught by the
// power-state legality invariant.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "audit/simulation_audit.h"
#include "core/memory_controller.h"
#include "server/simulation_driver.h"
#include "sim/simulator.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

WorkloadSpec ShortWorkload(Tick duration = 30 * kMillisecond) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = duration;
  return spec;
}

SimulationOptions AuditedOptions() {
  SimulationOptions options;
  options.audit_level = 2;
  options.audit_abort = false;  // Collect, so the test can assert counts.
  return options;
}

// Auditing is read-only: a level-2 audited run reproduces the unaudited
// run on every simulated outcome. Its periodic passes are extra kernel
// events (one per audit period up to the run end), so those are the only
// allowed difference in the event count.
TEST(SimulationAuditTest, AuditedRunMatchesUnauditedRunExactly) {
  const WorkloadSpec spec = ShortWorkload();  // Long enough to migrate.
  SimulationOptions baseline;
  SimulationOptions ta = baseline;
  ta.memory.dma.ta.enabled = true;
  ta.memory.dma.ta.mu = 2.0;
  SimulationOptions ta_pl = ta;
  ta_pl.memory.dma.pl.enabled = true;
  ta_pl.memory.dma.pl.groups = 2;

  for (const SimulationOptions& scheme : {baseline, ta, ta_pl}) {
    SimulationOptions audited = scheme;
    audited.audit_level = 2;
    audited.audit_abort = false;
    const SimulationResults off = RunWorkload(spec, scheme);
    const SimulationResults on = RunWorkload(spec, audited);
    SCOPED_TRACE(off.scheme + (scheme.memory.dma.pl.enabled ? "+PL" : ""));

    for (int i = 0; i < kEnergyBucketCount; ++i) {
      const auto bucket = static_cast<EnergyBucket>(i);
      EXPECT_EQ(off.energy.Of(bucket), on.energy.Of(bucket))
          << EnergyBucketName(bucket);
    }
    EXPECT_EQ(off.utilization_factor, on.utilization_factor);
    EXPECT_EQ(off.client_response.Count(), on.client_response.Count());
    EXPECT_EQ(off.client_response.Sum(), on.client_response.Sum());
    EXPECT_EQ(off.chunk_service.Sum(), on.chunk_service.Sum());
    EXPECT_EQ(off.transfer_latency.Sum(), on.transfer_latency.Sum());
    EXPECT_EQ(off.controller.transfers_started,
              on.controller.transfers_started);
    EXPECT_EQ(off.controller.transfers_completed,
              on.controller.transfers_completed);
    EXPECT_EQ(off.controller.migrations, on.controller.migrations);
    if (scheme.memory.dma.pl.enabled) {
      EXPECT_GT(off.controller.migrations, 0u);
    }
    EXPECT_EQ(off.server.reads, on.server.reads);
    EXPECT_EQ(off.server.misses, on.server.misses);
    EXPECT_EQ(off.gated_requests, on.gated_requests);
    EXPECT_EQ(off.releases_by_quorum, on.releases_by_quorum);
    EXPECT_EQ(off.releases_by_slack, on.releases_by_slack);
    EXPECT_EQ(off.max_gated_buffer_bytes, on.max_gated_buffer_bytes);
    EXPECT_EQ(off.hottest_chip_share, on.hottest_chip_share);
    const Tick end = spec.duration + scheme.drain;
    EXPECT_EQ(on.executed_events - off.executed_events,
              static_cast<std::uint64_t>(end / audited.audit_period));

    // The audited run really audited, and found nothing.
    EXPECT_EQ(off.audit_checks, 0u);
    EXPECT_GT(on.audit_checks, 0u);
    EXPECT_EQ(on.audit_failures, 0u);
  }

  // Only a level-2 audit arms the kernel's per-pop FIFO check, and only
  // while it is attached.
  Simulator simulator;
  const std::unique_ptr<LowPowerPolicy> policy =
      MakePolicy(PolicyKind::kDynamic, DynamicThresholdConfig{});
  MemoryController controller(&simulator, MemorySystemConfig{}, policy.get());
  SimulationAudit::Options options;
  options.mode = InvariantAuditor::Mode::kCollect;
  for (int level : {1, 2}) {
    options.level = level;
    std::optional<SimulationAudit> audit;
    audit.emplace(&simulator, &controller, options);
    EXPECT_EQ(simulator.pop_order_check(), level == 2) << "level " << level;
    audit.reset();
    EXPECT_FALSE(simulator.pop_order_check()) << "level " << level;
  }
}

TEST(SimulationAuditTest, BaselineCleanRunPassesAllInvariants) {
  const SimulationResults results =
      RunWorkload(ShortWorkload(), AuditedOptions());
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  // The run did real work, so the invariants judged a live system.
  EXPECT_GT(results.controller.transfers_completed, 0u);
}

TEST(SimulationAuditTest, TemporalAlignmentCleanRunPassesAllInvariants) {
  // Sparse arrivals so the run quiesces within the default drain. This
  // is the non-vacuous path through the drained invariants: the event
  // queue empties, so they really assert the pool and gated queues are
  // clean rather than passing on the horizon-cutoff escape hatch.
  WorkloadSpec spec = ShortWorkload();
  spec = WithIntensity(spec, 30.0);
  SimulationOptions options = AuditedOptions();
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 4.0;  // Generous budget: gating definitely fires.
  const SimulationResults results = RunWorkload(spec, options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  // Gating happened, so the aligner invariants (lockstep, slack budget,
  // drained queues) were exercised, not vacuous.
  EXPECT_GT(results.gated_requests, 0u);
}

TEST(SimulationAuditTest, DenseTraceCutOffByHorizonStillPassesDrainChecks) {
  // The default OLTP trace with a generous mu holds gated releases past
  // RunUntil(): descriptors are legitimately in flight when the clock
  // stops. The drained invariants must recognize the non-empty event
  // queue as a horizon cutoff, not a leak.
  SimulationOptions options = AuditedOptions();
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 4.0;
  const SimulationResults results = RunWorkload(ShortWorkload(), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  EXPECT_GT(results.gated_requests, 0u);
}

TEST(SimulationAuditTest, StaticNapCleanRunPassesAllInvariants) {
  // Static nap maximizes power-state transitions, stressing the
  // transition-legality and energy-conservation invariants.
  SimulationOptions options = AuditedOptions();
  options.policy = PolicyKind::kStaticNap;
  const SimulationResults results =
      RunWorkload(ShortWorkload(), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
}

TEST(SimulationAuditTest, EndOfRunOnlyLevelStillChecks) {
  SimulationOptions options = AuditedOptions();
  options.audit_level = 1;  // End-of-run registry pass only.
  const SimulationResults results =
      RunWorkload(ShortWorkload(10 * kMillisecond), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
}

TEST(SimulationAuditTest, MonitoredRunPassesRegionBudgetInvariant) {
  // The access monitor's split/merge churn runs under the periodic
  // monitor-region-budget invariant: region count within
  // [min_regions, max_regions] and the region list a gap-free sorted
  // tiling of the page space, judged at every level-2 audit point.
  SimulationOptions options = AuditedOptions();
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  options.memory.monitor.enabled = true;
  SchemeRule hot;
  hot.size_lo = 1;
  hot.size_hi = 1;
  hot.acc_lo = 8;
  hot.action = SchemeAction::kMigrateHot;
  options.memory.monitor.rules.push_back(hot);

  const SimulationResults results = RunWorkload(ShortWorkload(), options);
  EXPECT_GT(results.audit_checks, 0u);
  EXPECT_EQ(results.audit_failures, 0u);
  // Splits actually happened, so the budget invariant judged a live
  // region map rather than the untouched initial tiling.
  EXPECT_GT(results.monitor.splits, 0u);
  EXPECT_GE(results.monitor.regions, 32);
  EXPECT_LE(results.monitor.regions, 1024);
}

TEST(SimulationAuditTest, SeededResyncFaultIsCaught) {
  // Corrupt the model the chips actually run -- waking from nap takes
  // zero time, i.e. the resync delay is skipped -- while the auditor
  // judges transitions against the pristine Table 1 reference.
  static const RdramChipModel kReference{PowerModel{}};
  SimulationOptions options = AuditedOptions();
  options.policy = PolicyKind::kStaticNap;  // Guarantees nap/wake cycles.
  options.memory.power.from_nap.duration = Ticks(0);
  options.audit_reference_model = &kReference;

  const SimulationResults results =
      RunWorkload(ShortWorkload(10 * kMillisecond), options);
  EXPECT_GT(results.audit_failures, 0u);
}

TEST(SimulationAuditDeathTest, SeededFaultAbortsInAbortMode) {
  static const RdramChipModel kReference{PowerModel{}};
  SimulationOptions options;
  options.audit_level = 2;
  options.audit_abort = true;
  options.policy = PolicyKind::kStaticNap;
  options.memory.power.from_nap.duration = Ticks(0);
  options.audit_reference_model = &kReference;

  EXPECT_DEATH(RunWorkload(ShortWorkload(10 * kMillisecond), options),
               "power-state-legality");
}

}  // namespace
}  // namespace dmasim
