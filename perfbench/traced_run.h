// Traced single-system run assembled from dmasim's public component
// classes (Simulator, MemoryController, DataServer), in the same wiring
// and event order as RunTrace. Its outcome digest must equal RunTrace's
// on the same inputs; the benchmark checks that on every traced run.
//
// Around its calls into the layers it records:
//   sim.run       Simulator::RunUntil slices (the event kernel, with
//                 everything the events call);
//   server.entry  DataServer::ClientRead/ClientWrite/CpuAccess calls,
//                 aggregated per slice;
//   layout.plan   LayoutManager::Plan replayed at every PL interval on
//                 the controller's popularity counts and ChipOf map;
//   server.cache  a BufferCache replay of the run's request pages;
//   collect       CollectRunResults.
#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include <cstdint>
#include <string>

#include "server/simulation_driver.h"
#include "spans.h"
#include "trace/trace.h"

namespace perfbench {

// Host-side layer measurements of one traced run.
struct LayerCosts {
  double run_s = 0.0;            // Whole traced run.
  double sim_s = 0.0;            // Inside Simulator::RunUntil.
  double server_entry_s = 0.0;   // Inside the DataServer entry points.
  std::uint64_t server_entry_calls = 0;
  double cache_replay_s = 0.0;
  std::uint64_t cache_ops = 0;
  std::uint64_t layout_plans = 0;
  double layout_plan_s = 0.0;
  std::uint64_t io_chunks = 0;  // Chunks issued over all I/O buses.
};

struct TracedRun {
  dmasim::SimulationResults results;
  LayerCosts costs;
};

TracedRun RunTraced(const dmasim::Trace& trace, double miss_ratio,
                    dmasim::Tick duration,
                    const dmasim::SimulationOptions& options,
                    const std::string& workload_name, SpanRecorder* spans,
                    int run_id, int parent);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
