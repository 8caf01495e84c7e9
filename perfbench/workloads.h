// The benchmark's workloads. Each is a batch job run as a closed loop
// with one caller: a pass submits the workload's simulations through a
// public dmasim entry point and waits for all of them.
//
//   storage-sweep  SweepRunner over {OLTP-St, Synthetic-St, DSS-St,
//                  OLTP-St with 30% writes} x {baseline, DMA-TA,
//                  DMA-TA-PL(2)} x CP-Limit {5, 10, 20%}.
//   monitored      RunTrace: OLTP-St baseline, then DMA-TA-PL(2) at 10%
//                  fed by the region monitor (hot_cold.scheme).
//   fleet          RunFleet: 32 OLTP-St domains, 5% remote streams.
//
// NOTES.md records why each exists and what it is expected to show.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/simulation_driver.h"
#include "sim/sharded_engine.h"
#include "spans.h"
#include "traced_run.h"

namespace perfbench {

// One simulation of a pass.
struct RunOutcome {
  std::string label;  // RunPlan::Label() style; unique within a pass.
  bool ok = false;
  std::string error;
  bool is_baseline = false;
  double cp_limit = -1.0;  // < 0 for baselines.
  bool has_delta = false;  // Savings/degradation vs the cell baseline.
  double savings = 0.0;
  double degradation = 0.0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  dmasim::SimulationResults results;
  LayerCosts costs;  // Traced passes only.
};

// Sharded-engine outcome of a fleet pass.
struct FleetStats {
  int domains = 0;
  dmasim::ShardedEngine::Stats engine;
  double serial_wall_s = 0.0;  // Traced passes: the 1-thread run.
  double parallel_wall_s = 0.0;
  double parallel_cpu_s = 0.0;
};

struct Pass {
  std::vector<RunOutcome> runs;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // Process CPU (user + sys) over the pass.
  double sim_ms = 0.0;  // Simulated milliseconds completed, summed.
  // Canonical serialisation of the pass's outcome (no host clocks); a
  // deterministic program yields the same bytes on every pass.
  std::string artifact;
  bool has_sweep = false;  // The runs went through SweepRunner's phases.
  // Experiment-runner accounting (sweeps only).
  double run_s_sum = 0.0;      // Sum of per-run wall time.
  double phase1_idle_s = 0.0;  // Worker time idle at the baseline barrier.
  bool has_fleet = false;
  FleetStats fleet;
};

// Inputs made by Setup, for the trace layer.
struct SetupInfo {
  std::uint64_t trace_records = 0;
  double generate_s = 0.0;
};

// (label, digest) pairs.
using DigestList = std::vector<std::pair<std::string, std::uint64_t>>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual int workers() const = 0;
  // Headline cell whose saving the workload reports; empty if none.
  virtual std::string headline_label() const = 0;

  // Builds the inputs for `seed` (0 = the presets' own seeds): trace
  // generation and spec expansion. Timed as setup_s; may run repeatedly.
  virtual SetupInfo Setup(std::uint64_t seed) = 0;
  // Digests of the inputs the last Setup built, for the input check. Not
  // part of setup_s: hashing is the gate's work, not the program's.
  virtual DigestList InputDigests() const = 0;
  // One untraced pass through the public entry point.
  virtual Pass Run() = 0;
  // One traced pass: the same simulations through the benchmark's own
  // component assembly (or, for the fleet, RunFleet serial and parallel),
  // with spans around each layer call.
  virtual Pass RunTraced(SpanRecorder* spans) = 0;
  // Untraced counterparts, through the public entry point, of the runs
  // RunTraced makes beyond Run's; so those traced runs are gated too.
  // Run once, after a Run (whose calibration they may reuse).
  virtual Pass RunTracedExtras() { return Pass{}; }
};

std::vector<std::string> WorkloadNames();
// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
