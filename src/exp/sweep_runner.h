// Parallel sweep execution.
//
// `SweepRunner` expands an `ExperimentSpec` and executes the grid on a
// work-stealing thread pool in two phases:
//
//   phase 1 — every cell's baseline run, in parallel;
//   phase 2 — mu is resolved for each dependent run from its cell
//             baseline's CP-Limit calibration (Section 5.1), then all
//             TA / TA-PL runs execute in parallel.
//
// Determinism contract: each run builds its own `Simulator`, trace, and
// RNGs inside its task — no mutable state is shared between concurrent
// runs — and every seed comes from the expanded plan, never from thread
// identity or scheduling. An N-thread sweep therefore produces
// bit-identical `SimulationResults` to a 1-thread sweep, run for run;
// only host wall-clock fields differ. `exp_determinism_test.cc` holds
// this contract down to the serialized JSON bytes.
//
// A run whose configuration is invalid (or that throws) becomes a
// `kFailed` record; dependents of a failed baseline become `kSkipped`.
// The sweep itself always completes.
#ifndef DMASIM_EXP_SWEEP_RUNNER_H_
#define DMASIM_EXP_SWEEP_RUNNER_H_

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exp/experiment_spec.h"
#include "exp/result_sink.h"

namespace dmasim {

struct SweepOptions {
  // Worker threads; <= 0 selects the hardware concurrency.
  int threads = 0;

  // When non-empty, each run's observability trace is written to
  // "<prefix>-run<id>.json" (Chrome/Perfetto trace_event format). The
  // paths are resolved before submission, so concurrent runs never write
  // the same file. Only effective when the run's options request
  // obs_level 2.
  std::string trace_out_prefix;
};

struct SweepResults {
  SweepSummary summary;
  std::vector<RunRecord> records;  // Sorted by run id.

  // The baseline record of `cell_id`, or nullptr.
  const RunRecord* FindBaseline(int cell_id) const;

  // First record whose plan satisfies `pred`, or nullptr.
  const RunRecord* Find(
      const std::function<bool(const RunPlan&)>& pred) const;

  // Convenience lookup by (workload name, scheme, CP-Limit). A negative
  // `cp_limit` matches the cell baseline.
  const RunRecord* Find(const std::string& workload,
                        const SchemeSpec& scheme, double cp_limit) const;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  // Registers a sink (not owned; must outlive Run).
  void AddSink(ResultSink* sink);

  // Executes the spec's grid to completion.
  SweepResults Run(const ExperimentSpec& spec);

 private:
  void Notify(const RunRecord& record);

  SweepOptions options_;
  std::vector<ResultSink*> sinks_;
  std::mutex sink_mutex_;
};

}  // namespace dmasim

#endif  // DMASIM_EXP_SWEEP_RUNNER_H_
