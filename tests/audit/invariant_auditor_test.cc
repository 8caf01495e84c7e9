// Unit tests for the audit registry and the power-state transition
// validator (src/audit/).
#include <gtest/gtest.h>

#include <string>

#include "audit/invariant_auditor.h"
#include "audit/power_state_auditor.h"
#include "mem/chip_power_model.h"
#include "mem/power_model.h"

namespace dmasim {
namespace {

TEST(InvariantAuditorTest, RunPhaseEvaluatesOnlySubscribers) {
  InvariantAuditor auditor(InvariantAuditor::Mode::kCollect);
  int end_runs = 0;
  int periodic_runs = 0;
  auditor.Register("end-only", static_cast<unsigned>(AuditPhase::kEndOfRun),
                   [&](std::string*) {
                     ++end_runs;
                     return true;
                   });
  auditor.Register("periodic-only",
                   static_cast<unsigned>(AuditPhase::kPeriodic),
                   [&](std::string*) {
                     ++periodic_runs;
                     return true;
                   });
  auditor.Register("both", AuditPhase::kEndOfRun | AuditPhase::kPeriodic,
                   [&](std::string*) { return true; });

  EXPECT_EQ(auditor.RunPhase(AuditPhase::kPeriodic), 0);
  EXPECT_EQ(end_runs, 0);
  EXPECT_EQ(periodic_runs, 1);
  EXPECT_EQ(auditor.checks_run(), 2u);  // periodic-only + both.

  EXPECT_EQ(auditor.RunPhase(AuditPhase::kEndOfRun), 0);
  EXPECT_EQ(end_runs, 1);
  EXPECT_EQ(periodic_runs, 1);
  EXPECT_EQ(auditor.checks_run(), 4u);
  EXPECT_EQ(auditor.registered_count(), 3u);
}

TEST(InvariantAuditorTest, CollectModeAccumulatesFailures) {
  InvariantAuditor auditor(InvariantAuditor::Mode::kCollect);
  auditor.Register("always-fails",
                   static_cast<unsigned>(AuditPhase::kEndOfRun),
                   [](std::string* message) {
                     *message = "it broke";
                     return false;
                   });
  auditor.Register("always-holds",
                   static_cast<unsigned>(AuditPhase::kEndOfRun),
                   [](std::string*) { return true; });

  EXPECT_EQ(auditor.RunPhase(AuditPhase::kEndOfRun), 1);
  ASSERT_EQ(auditor.failures().size(), 1u);
  EXPECT_EQ(auditor.failures()[0].invariant, "always-fails");
  EXPECT_EQ(auditor.failures()[0].message, "it broke");

  // A second pass records the violation again: failures are per-pass
  // observations, not deduplicated.
  EXPECT_EQ(auditor.RunPhase(AuditPhase::kEndOfRun), 1);
  EXPECT_EQ(auditor.failures().size(), 2u);
}

TEST(InvariantAuditorTest, ReportFailureFeedsCollection) {
  InvariantAuditor auditor(InvariantAuditor::Mode::kCollect);
  auditor.ReportFailure("hook-check", "observed out-of-band");
  ASSERT_EQ(auditor.failures().size(), 1u);
  EXPECT_EQ(auditor.failures()[0].invariant, "hook-check");
}

TEST(InvariantAuditorDeathTest, AbortModeAbortsWithInvariantName) {
  InvariantAuditor auditor(InvariantAuditor::Mode::kAbort);
  auditor.Register("doomed", static_cast<unsigned>(AuditPhase::kEndOfRun),
                   [](std::string* message) {
                     *message = "boom";
                     return false;
                   });
  EXPECT_DEATH(auditor.RunPhase(AuditPhase::kEndOfRun), "doomed");
}

TEST(PowerStateAuditorTest, LegalTransitionsPass) {
  const PowerModel model;
  const RdramChipModel chip_model{model};
  PowerStateAuditor auditor(&chip_model, 1);
  auditor.Seed(0, PowerState::kActive);

  // Step down active -> nap, exactly the modeled latency.
  EXPECT_EQ(auditor.Validate(0, PowerState::kActive, PowerState::kNap,
                             /*up=*/false, 1000, 1000 + model.to_nap.duration.value()),
            "");
  // Wake nap -> active, exactly the modeled resync delay.
  EXPECT_EQ(auditor.Validate(0, PowerState::kNap, PowerState::kActive,
                             /*up=*/true, 50000,
                             50000 + model.from_nap.duration.value()),
            "");
  EXPECT_EQ(auditor.transitions_checked(), 2u);
}

TEST(PowerStateAuditorTest, SkippedResyncDelayIsFlagged) {
  const PowerModel model;
  const RdramChipModel chip_model{model};
  PowerStateAuditor auditor(&chip_model, 1);
  auditor.Seed(0, PowerState::kNap);

  // A wake that takes zero time skipped the 60 ns resync delay.
  const std::string message = auditor.Validate(
      0, PowerState::kNap, PowerState::kActive, /*up=*/true, 50000, 50000);
  EXPECT_NE(message, "");
}

TEST(PowerStateAuditorTest, UpwardTransitionMustTargetActive) {
  const PowerModel model;
  const RdramChipModel chip_model{model};
  PowerStateAuditor auditor(&chip_model, 1);
  auditor.Seed(0, PowerState::kPowerdown);
  EXPECT_NE(auditor.Validate(0, PowerState::kPowerdown, PowerState::kNap,
                             /*up=*/true, 0, model.from_powerdown.duration.value()),
            "");
}

TEST(PowerStateAuditorTest, DownwardTransitionMustLowerTheState) {
  const PowerModel model;
  const RdramChipModel chip_model{model};
  PowerStateAuditor auditor(&chip_model, 1);
  auditor.Seed(0, PowerState::kNap);
  EXPECT_NE(auditor.Validate(0, PowerState::kNap, PowerState::kStandby,
                             /*up=*/false, 0, model.to_standby.duration.value()),
            "");
}

TEST(PowerStateAuditorTest, StateDiscontinuityIsFlagged) {
  const PowerModel model;
  const RdramChipModel chip_model{model};
  PowerStateAuditor auditor(&chip_model, 1);
  auditor.Seed(0, PowerState::kActive);
  // The chip was last seen active, so a transition claiming to start from
  // nap is a teleport.
  EXPECT_NE(auditor.Validate(0, PowerState::kNap, PowerState::kActive,
                             /*up=*/true, 0, model.from_nap.duration.value()),
            "");
}

}  // namespace
}  // namespace dmasim
