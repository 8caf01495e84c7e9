// The tentpole invariant, end to end: a fleet run's results are a pure
// function of its options — bit-identical for every `sim_threads` value
// — across the paper's OLTP and DSS storage workloads and a monitored
// configuration. The golden-replay test additionally pins the exact
// cross-shard delivery log, so a synchronization bug that merely
// reorders shard-boundary events (without changing aggregate stats)
// still fails loudly. (Suite names carry *Determinism* so the TSan CI
// leg exercises the threaded paths under the race detector.)
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mon/scheme_parser.h"
#include "server/fleet_driver.h"
#include "server/simulation_driver.h"
#include "trace/workloads.h"

namespace dmasim {
namespace {

// Short per-domain horizon: with four domains this still crosses
// hundreds of engine windows, which is what the invariant stresses.
constexpr Tick kFleetDuration = 4 * kMillisecond;

FleetOptions SmallFleet(WorkloadSpec spec) {
  FleetOptions options;
  options.workload = spec;
  options.workload.duration = kFleetDuration;
  options.domains = 4;
  options.remote_fraction = 0.25;  // Plenty of cross-shard traffic.
  options.streams_per_domain = 256;
  options.remote_latency = 20 * kMicrosecond;
  return options;
}

FleetOptions MonitoredFleet() {
  FleetOptions options = SmallFleet(OltpStorageSpec());
  options.base.memory.dma.ta.enabled = true;
  options.base.memory.dma.ta.mu = 2.0;
  options.base.memory.dma.pl.enabled = true;
  options.base.memory.monitor.enabled = true;
  const SchemeParseResult schemes = ParseSchemeString(
      "1 1 8 * 0 migrate-hot\n"
      "* * 0 0 8 demote-chip:2\n");
  EXPECT_TRUE(schemes.ok()) << schemes.error;
  options.base.memory.monitor.rules = schemes.rules;
  return options;
}

std::uint64_t FingerprintAt(FleetOptions options, int threads) {
  options.sim_threads = threads;
  const FleetResults results = RunFleet(options);
  // The run has to have actually computed something worth hashing.
  EXPECT_GT(results.executed_events, 0u);
  EXPECT_GT(results.remote_completed, 0u);
  EXPECT_GT(results.engine.windows, 0u);
  return results.Fingerprint();
}

TEST(FleetDeterminismTest, OltpFingerprintIsThreadCountInvariant) {
  const FleetOptions options = SmallFleet(OltpStorageSpec());
  const std::uint64_t serial = FingerprintAt(options, 1);
  EXPECT_EQ(FingerprintAt(options, 2), serial);
  EXPECT_EQ(FingerprintAt(options, 8), serial);
}

TEST(FleetDeterminismTest, DssFingerprintIsThreadCountInvariant) {
  const FleetOptions options = SmallFleet(DssStorageSpec());
  const std::uint64_t serial = FingerprintAt(options, 1);
  EXPECT_EQ(FingerprintAt(options, 2), serial);
  EXPECT_EQ(FingerprintAt(options, 8), serial);
}

TEST(FleetDeterminismTest, MonitoredFingerprintIsThreadCountInvariant) {
  const FleetOptions options = MonitoredFleet();
  const std::uint64_t serial = FingerprintAt(options, 1);
  EXPECT_EQ(FingerprintAt(options, 2), serial);
  EXPECT_EQ(FingerprintAt(options, 8), serial);
}

TEST(FleetDeterminismTest, RepeatedRunsShareOneFingerprint) {
  const FleetOptions options = SmallFleet(OltpStorageSpec());
  EXPECT_EQ(FingerprintAt(options, 1), FingerprintAt(options, 1));
  EXPECT_EQ(FingerprintAt(options, 2), FingerprintAt(options, 2));
}

TEST(FleetDeterminismTest, DistinctSeedsProduceDistinctFingerprints) {
  // The fingerprint must actually see the simulation: a digest that
  // ignored its inputs would pass every equality test above.
  FleetOptions options = SmallFleet(OltpStorageSpec());
  const std::uint64_t a = FingerprintAt(options, 1);
  options.workload.seed += 1;
  EXPECT_NE(FingerprintAt(options, 1), a);
}

// Golden replay: the shard-boundary traffic itself — every delivered
// message, in delivery order — is identical across thread counts.
TEST(FleetDeterminismTest, DeliveryLogIsThreadCountInvariant) {
  FleetOptions options = SmallFleet(OltpStorageSpec());
  options.record_deliveries = true;

  options.sim_threads = 1;
  const FleetResults serial = RunFleet(options);
  ASSERT_GT(serial.deliveries.size(), 0u);
  // Every remote read crosses the interconnect twice (request + reply).
  EXPECT_EQ(serial.deliveries.size(),
            serial.remote_sent + serial.remote_completed);

  for (int threads : {2, 8}) {
    options.sim_threads = threads;
    const FleetResults pooled = RunFleet(options);
    ASSERT_EQ(pooled.deliveries.size(), serial.deliveries.size())
        << "threads=" << threads;
    for (std::size_t i = 0; i < serial.deliveries.size(); ++i) {
      const ShardMessage& want = serial.deliveries[i];
      const ShardMessage& got = pooled.deliveries[i];
      ASSERT_TRUE(got.deliver_at == want.deliver_at &&
                  got.send_seq == want.send_seq && got.a == want.a &&
                  got.b == want.b && got.c == want.c &&
                  got.src == want.src && got.dst == want.dst &&
                  got.kind == want.kind)
          << "threads=" << threads << " delivery #" << i;
    }
    // Every send is delivered exactly once: per source, the sequence
    // numbers in the log are a gapless permutation of 0..n-1. (The log
    // is NOT deliver_at- or seq-sorted globally — replies carry
    // completion times that land beyond the window horizon, and the
    // sort key is per-barrier.)
    std::vector<std::vector<std::uint64_t>> seqs(
        static_cast<std::size_t>(options.domains));
    for (const ShardMessage& message : pooled.deliveries) {
      seqs[message.src].push_back(message.send_seq);
    }
    for (std::vector<std::uint64_t>& from_src : seqs) {
      std::sort(from_src.begin(), from_src.end());
      for (std::size_t s = 0; s < from_src.size(); ++s) {
        ASSERT_EQ(from_src[s], s);
      }
    }
  }
}

// The dynamic layer of the determinism proof kit (DESIGN.md section 15)
// on a real fleet: schedule-perturbation seeds (worker backoff, permuted
// submit and drain orders) must reproduce the unperturbed run's
// fingerprint and every per-window digest, and the detector must be able
// to fail — with the barrier sort skipped, some seed has to diverge.
FleetOptions FuzzedFleet(std::uint64_t seed, EngineFault fault) {
  FleetOptions options;
  options.workload = OltpStorageSpec();
  options.workload.duration = 5 * kMillisecond;
  options.domains = 8;
  options.streams_per_domain = 2048;
  options.sim_threads = 4;
  options.record_window_digests = true;
  options.sched_fuzz_seed = seed;
  options.engine_fault = fault;
  return options;
}

TEST(FleetFuzzDeterminismTest, PerturbationSeedsMatchUnperturbedRun) {
  const FleetResults base = RunFleet(FuzzedFleet(0, EngineFault::kNone));
  ASSERT_GT(base.remote_completed, 0u);
  ASSERT_FALSE(base.window_digests.empty());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FleetResults fuzzed =
        RunFleet(FuzzedFleet(seed, EngineFault::kNone));
    EXPECT_EQ(fuzzed.Fingerprint(), base.Fingerprint()) << "seed " << seed;
    EXPECT_EQ(fuzzed.window_digests, base.window_digests) << "seed " << seed;
  }
}

TEST(FleetFuzzDeterminismTest, SkippedBarrierSortDivergesUnderSomeSeed) {
  // Compared against the faulted run's own unperturbed schedule, so only
  // the perturbation (not the fault alone) can make a seed diverge.
  const FleetResults base =
      RunFleet(FuzzedFleet(0, EngineFault::kSkipBarrierSort));
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 8 && !diverged; ++seed) {
    const FleetResults faulted =
        RunFleet(FuzzedFleet(seed, EngineFault::kSkipBarrierSort));
    diverged = faulted.window_digests != base.window_digests;
  }
  EXPECT_TRUE(diverged);
}

// The single-system driver accepts --sim-threads too: one controller is
// one shard, so the sharded path must reproduce the serial path on the
// whole SimulationResults surface, not just a digest.
TEST(DriverShardingDeterminismTest, RunTraceMatchesSerialExactly) {
  WorkloadSpec spec = OltpStorageSpec();
  spec.duration = 8 * kMillisecond;
  const Trace trace = GenerateWorkload(spec);

  SimulationOptions serial_options;
  serial_options.memory.dma.ta.enabled = true;
  serial_options.memory.dma.ta.mu = 2.0;
  serial_options.memory.dma.pl.enabled = true;

  SimulationOptions sharded_options = serial_options;
  sharded_options.sim_threads = 8;

  const SimulationResults a = RunTrace(
      trace, spec.miss_ratio, spec.duration, serial_options, spec.name);
  const SimulationResults b = RunTrace(
      trace, spec.miss_ratio, spec.duration, sharded_options, spec.name);

  EXPECT_EQ(a.energy.Total(), b.energy.Total());
  for (int bucket = 0; bucket < kEnergyBucketCount; ++bucket) {
    EXPECT_EQ(a.energy.Of(static_cast<EnergyBucket>(bucket)),
              b.energy.Of(static_cast<EnergyBucket>(bucket)))
        << "bucket " << bucket;
  }
  EXPECT_EQ(a.client_response.Count(), b.client_response.Count());
  EXPECT_EQ(a.client_response.Sum(), b.client_response.Sum());
  EXPECT_EQ(a.chunk_service.Sum(), b.chunk_service.Sum());
  EXPECT_EQ(a.transfer_latency.Sum(), b.transfer_latency.Sum());
  EXPECT_EQ(a.controller.transfers_completed, b.controller.transfers_completed);
  EXPECT_EQ(a.server.reads, b.server.reads);
  EXPECT_EQ(a.server.misses, b.server.misses);
  EXPECT_EQ(a.gated_requests, b.gated_requests);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.stepped_events, b.stepped_events);
  EXPECT_EQ(a.utilization_factor, b.utilization_factor);
  EXPECT_EQ(a.hottest_chip_share, b.hottest_chip_share);
}

}  // namespace
}  // namespace dmasim
