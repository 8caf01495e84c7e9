// End-to-end level-2 audit runs for the non-default chip power models:
// every family member must drive a full OLTP workload under the complete
// invariant registry (power-state legality, energy conservation, time
// tiling) with zero failures, and the audit must still catch a seeded
// fault when the acting DDR4 model skips the tXS self-refresh exit.
#include <gtest/gtest.h>

#include "core/memory_controller.h"
#include "mem/chip_power_model.h"
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

SimulationOptions AuditedOptions(ChipModelKind kind) {
  SimulationOptions options;
  options.audit_level = 2;
  options.audit_abort = false;
  options.memory.chip_model = kind;
  return options;
}

TEST(ChipModelAuditTest, EveryFamilyMemberPassesLevel2Clean) {
  for (ChipModelKind kind : kAllChipModelKinds) {
    SCOPED_TRACE(std::string(ChipModelKindName(kind)));
    const SimulationResults results =
        RunWorkload(ShortWorkload(), AuditedOptions(kind));
    EXPECT_GT(results.audit_checks, 0u);
    EXPECT_EQ(results.audit_failures, 0u);
    EXPECT_GT(results.energy.Total().joules(), 0.0);
  }
}

TEST(ChipModelAuditTest, Ddr4SchemeNameCarriesTheModelSuffix) {
  const SimulationResults results =
      RunWorkload(ShortWorkload(10 * kMillisecond),
                  AuditedOptions(ChipModelKind::kDdr4));
  EXPECT_NE(results.scheme.find("+ddr4"), std::string::npos) << results.scheme;
}

TEST(ChipModelAuditTest, Ddr4DeepensIntoItsOwnCascade) {
  // With aggressive thresholds the dynamic chain policy must walk the
  // DDR4-only states -- their residency becomes nonzero while the
  // RDRAM-only nap/powerdown slots stay empty.
  Simulator simulator;
  MemorySystemConfig config;
  config.chips = 2;
  config.chip_model = ChipModelKind::kDdr4;
  DynamicThresholdConfig thresholds;
  thresholds.active_to_standby = 10 * kNanosecond;
  thresholds.standby_to_nap = 100 * kNanosecond;
  thresholds.nap_to_powerdown = kMicrosecond;
  const ModelChainPolicy policy(ChipModelKind::kDdr4, config.power,
                                thresholds);
  MemoryController controller(&simulator, config, &policy);

  // Wake chip 0, then idle long enough to cascade all the way back
  // down: active -> standby -> act-pdn -> pre-pdn -> self-refresh.
  controller.CpuAccess(0, 64);
  simulator.RunUntil(10 * kMillisecond);
  controller.CollectEnergy();  // Flushes chip accounting.

  const ChipStats& stats = controller.chip(0).stats();
  EXPECT_GT(stats.low_power[static_cast<int>(PowerState::kStandby)], 0);
  EXPECT_GT(stats.low_power[static_cast<int>(PowerState::kActivePowerdown)],
            0);
  EXPECT_GT(
      stats.low_power[static_cast<int>(PowerState::kPrechargePowerdown)], 0);
  EXPECT_GT(stats.low_power[static_cast<int>(PowerState::kSelfRefresh)], 0);
  EXPECT_EQ(stats.low_power[static_cast<int>(PowerState::kNap)], 0);
  EXPECT_EQ(stats.low_power[static_cast<int>(PowerState::kPowerdown)], 0);
}

TEST(ChipModelAuditTest, SkippedSelfRefreshExitIsCaught) {
  // DDR4 flavor of the seeded resync fault: the acting model exits
  // self-refresh in zero time while the pristine reference demands tXS.
  static const Ddr4ChipModel kReference;
  SimulationOptions options = AuditedOptions(ChipModelKind::kDdr4);
  options.audit_reference_model = &kReference;
  // Drive the chips all the way into self-refresh quickly and often.
  options.thresholds.active_to_standby = 10 * kNanosecond;
  options.thresholds.standby_to_nap = 20 * kNanosecond;
  options.thresholds.nap_to_powerdown = 30 * kNanosecond;

  // Clean acting model first: attributes any failure to the fault.
  EXPECT_EQ(RunWorkload(ShortWorkload(10 * kMillisecond), options)
                .audit_failures,
            0u);

  Ddr4Options faulty;
  faulty.self_refresh_exit = 0;
  options.memory.ddr4 = faulty;
  const SimulationResults results =
      RunWorkload(ShortWorkload(10 * kMillisecond), options);
  EXPECT_GT(results.audit_failures, 0u);
}

}  // namespace
}  // namespace dmasim
