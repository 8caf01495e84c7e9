// End-to-end acceptance tests for the online access monitor: on the
// paper's OLTP storage workload, DMA-TA-PL fed by the monitored
// popularity estimate must recover at least 90% of the energy saving the
// oracle tracker achieves, at no more than 1% simulated monitoring
// overhead -- and a monitored run must be exactly reproducible, down to
// pinned golden outputs.
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "mon/scheme_parser.h"
#include "server/simulation_driver.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

// Short enough to keep the suite fast, long enough for the monitor to
// pass several aging horizons (the recovery margin is stable from
// ~200 ms on; see examples/monitor_eval.cpp for the full experiment).
constexpr Tick kDuration = 200 * kMillisecond;
constexpr double kCpLimit = 0.10;

SimulationOptions MonitoredOptions(const SimulationOptions& oracle_options) {
  SimulationOptions options = oracle_options;
  options.memory.monitor.enabled = true;
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "64 * 0 1 4 pin-cold\n"
      "* * 0 0 8 demote-chip\n");
  EXPECT_TRUE(schemes.ok()) << schemes.error;
  options.memory.monitor.rules = schemes.rules;
  return options;
}

TEST(MonitorIntegrationTest, MonitoredPlRecoversOracleSavings) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = kDuration;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  const SimulationResults baseline = RunTrace(
      trace, spec.miss_ratio, spec.duration, options, spec.name);
  const CpCalibration calibration = Calibrate(baseline);

  SimulationOptions oracle_options = options;
  oracle_options.memory.dma.ta.enabled = true;
  oracle_options.memory.dma.ta.mu = calibration.MuFor(kCpLimit);
  oracle_options.memory.dma.pl.enabled = true;
  const SimulationResults oracle = RunTrace(
      trace, spec.miss_ratio, spec.duration, oracle_options, spec.name);

  const SimulationResults monitored =
      RunTrace(trace, spec.miss_ratio, spec.duration,
               MonitoredOptions(oracle_options), spec.name);

  const double oracle_savings = oracle.EnergySavingsVs(baseline);
  const double monitored_savings = monitored.EnergySavingsVs(baseline);
  ASSERT_GT(oracle_savings, 0.0);

  // The ISSUE acceptance gates.
  EXPECT_GE(monitored_savings, 0.9 * oracle_savings)
      << "monitored PL recovers only "
      << 100.0 * monitored_savings / oracle_savings
      << "% of the oracle saving";
  EXPECT_LE(monitored.monitor.overhead_fraction, 0.01);

  // The monitored run must also stay inside the calibrated CP-Limit.
  EXPECT_LE(monitored.ResponseDegradationVs(baseline), kCpLimit);

  // Monitor summary plumbed through the driver.
  EXPECT_TRUE(monitored.monitor.enabled);
  EXPECT_FALSE(oracle.monitor.enabled);
  EXPECT_GT(monitored.monitor.probes, 0u);
  EXPECT_GT(monitored.monitor.observations, 0u);
  EXPECT_GT(monitored.monitor.aggregations, 0u);
  EXPECT_GE(monitored.monitor.hotness_error, 0.0);
  EXPECT_LE(monitored.monitor.hotness_error, 1.0);
  EXPECT_GT(monitored.controller.migrations, 0u);

  // Scheme labels distinguish the popularity sources; the suffix appears
  // only when the monitor is on (default artifacts keep their bytes).
  EXPECT_NE(monitored.scheme.find("DMA-TA-PL"), std::string::npos);
  EXPECT_NE(monitored.scheme.find("+mon"), std::string::npos);
  EXPECT_EQ(oracle.scheme.find("+mon"), std::string::npos);
}

TEST(MonitorIntegrationTest, DeepDemoteSchemeRunsAndApplies) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 100 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.memory.monitor.enabled = true;
  // Idle thresholds beyond the run horizon: the scheme action is the
  // only way down, so the depth suffix is what decides the reached
  // states (with the defaults, idle chips free-fall to powerdown long
  // before the first aggregation and there is nothing left to demote).
  options.thresholds.active_to_standby = kSecond;
  options.thresholds.standby_to_nap = kSecond;
  options.thresholds.nap_to_powerdown = kSecond;
  // A tight aggregation cadence and a short streak so chips that woke
  // for a burst and went quiet are caught while still Active (chips
  // that never woke sit in Powerdown and are refused — they have no
  // lower state).
  options.memory.monitor.aggregation_interval = kMillisecond;
  const SchemeParseResult schemes = ParseSchemeString(
      "* * 0 0 2 demote-chip:2\n");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  options.memory.monitor.rules = schemes.rules;

  const SimulationResults deep = RunTrace(
      trace, spec.miss_ratio, spec.duration, options, spec.name);
  EXPECT_GT(deep.monitor.demotions_requested, 0u);
  EXPECT_GT(deep.monitor.demotions_applied, 0u);

  // The deeper target must change the power outcome versus the same
  // rule at depth 1: strictly more energy in the low-power buckets is
  // not guaranteed in general, but the runs must at least differ — a
  // depth suffix that parses but changes nothing would be dead config.
  SimulationOptions shallow_options = options;
  const SchemeParseResult shallow_schemes = ParseSchemeString(
      "* * 0 0 2 demote-chip\n");
  ASSERT_TRUE(shallow_schemes.ok()) << shallow_schemes.error;
  shallow_options.memory.monitor.rules = shallow_schemes.rules;
  const SimulationResults shallow = RunTrace(
      trace, spec.miss_ratio, spec.duration, shallow_options, spec.name);
  EXPECT_NE(deep.energy.Total(), shallow.energy.Total());
}

TEST(MonitorDeterminismTest, MonitoredRunIsReproducible) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 50 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  const SimulationOptions monitored = MonitoredOptions(options);

  const SimulationResults a = RunTrace(
      trace, spec.miss_ratio, spec.duration, monitored, spec.name);
  const SimulationResults b = RunTrace(
      trace, spec.miss_ratio, spec.duration, monitored, spec.name);

  EXPECT_EQ(a.energy.Total(), b.energy.Total());
  EXPECT_EQ(a.controller.migrations, b.controller.migrations);
  EXPECT_EQ(a.monitor.probes, b.monitor.probes);
  EXPECT_EQ(a.monitor.observations, b.monitor.observations);
  EXPECT_EQ(a.monitor.splits, b.monitor.splits);
  EXPECT_EQ(a.monitor.merges, b.monitor.merges);
  EXPECT_EQ(a.monitor.regions, b.monitor.regions);
  EXPECT_EQ(a.monitor.scheme_matches, b.monitor.scheme_matches);
  EXPECT_EQ(a.monitor.overhead_fraction, b.monitor.overhead_fraction);
  EXPECT_EQ(a.monitor.hotness_error, b.monitor.hotness_error);
}

// Golden pins: short DMA-TA-PL(2) runs fed by the monitor with the
// committed hot/cold schemes. Monitor outputs depend on the order in
// which each probe observes transfers (a split reshapes the regions
// later observations land in), on probe cadence and on edge triggering.
// At the default 1 us cadence a probe rarely finds two new transfers, so
// the second pin samples every 10 us, where the order does matter.
// Recorded with the full pool-slab probe the monitor originally used.
struct GoldenPin {
  Tick sampling_interval;
  std::uint64_t probes;
  std::uint64_t observations;
  std::uint64_t splits;
  std::uint64_t merges;
  int regions;
  std::uint64_t scheme_matches;
  // Bit patterns, so the pin is exact.
  std::uint64_t overhead_fraction_bits;
  std::uint64_t hotness_error_bits;
  std::uint64_t energy_joules_bits;
};

void PrintTo(const GoldenPin& pin, std::ostream* os) {
  *os << "sampling every " << pin.sampling_interval / kMicrosecond << " us";
}

class MonitorGoldenTest : public ::testing::TestWithParam<GoldenPin> {};

TEST_P(MonitorGoldenTest, HotColdSchemeRunMatchesPin) {
  const GoldenPin& pin = GetParam();
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 200 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions options;
  options.memory.dma.ta.enabled = true;
  options.memory.dma.ta.mu = 2.0;
  options.memory.dma.pl.enabled = true;
  options.memory.dma.pl.groups = 2;
  options.memory.monitor.enabled = true;
  options.memory.monitor.sampling_interval = pin.sampling_interval;
  const SchemeParseResult schemes = ParseSchemeFile(
      std::string(DMASIM_SOURCE_DIR) + "/examples/schemes/hot_cold.scheme");
  ASSERT_TRUE(schemes.ok()) << schemes.error;
  options.memory.monitor.rules = schemes.rules;

  const SimulationResults r = RunTrace(trace, spec.miss_ratio, spec.duration,
                                       options, spec.name);
  EXPECT_EQ(r.scheme, "DMA-TA-PL(2)+mon/dynamic");
  EXPECT_EQ(r.monitor.probes, pin.probes);
  EXPECT_EQ(r.monitor.observations, pin.observations);
  EXPECT_EQ(r.monitor.splits, pin.splits);
  EXPECT_EQ(r.monitor.merges, pin.merges);
  EXPECT_EQ(r.monitor.regions, pin.regions);
  EXPECT_EQ(r.monitor.scheme_matches, pin.scheme_matches);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.monitor.overhead_fraction),
            pin.overhead_fraction_bits)
      << r.monitor.overhead_fraction;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.monitor.hotness_error),
            pin.hotness_error_bits)
      << r.monitor.hotness_error;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.energy.Total().joules()),
            pin.energy_joules_bits)
      << r.energy.Total().joules();
}

INSTANTIATE_TEST_SUITE_P(
    Cadences, MonitorGoldenTest,
    ::testing::Values(
        // 0.0066527571428571432, 0.48387080467676058, 0.049784107465699848 J.
        GoldenPin{kMicrosecond, 210000, 10617, 2719, 4441, 1023, 3174,
                  0x3f7b3febe5b575d6u, 0x3fdef7bd4064db64u,
                  0x3fa97d4d72d9f952u},
        // 0.0012166619047619047, 0.50801434315721439, 0.049944762538797614 J.
        GoldenPin{10 * kMicrosecond, 21000, 10032, 3041, 5142, 960, 2889,
                  0x3f53ef0cc5d6e65eu, 0x3fe041a74bb84b04u,
                  0x3fa9925c236bd69bu}),
    [](const ::testing::TestParamInfo<GoldenPin>& info) {
      return std::to_string(info.param.sampling_interval / kMicrosecond) +
             "us";
    });

}  // namespace
}  // namespace dmasim
