#include "traced_run.h"

#include <memory>
#include <optional>
#include <vector>

#include "core/layout_manager.h"
#include "core/memory_controller.h"
#include "server/buffer_cache.h"
#include "server/data_server.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using dmasim::Tick;

// RunTrace's cursor feeder with each server call timed and the client
// request pages kept for the cache replay.
struct TimedFeeder {
  dmasim::Simulator* simulator;
  dmasim::DataServer* server;
  const dmasim::Trace* trace;
  std::vector<std::uint64_t>* request_pages;
  std::size_t cursor = 0;
  double entry_s = 0.0;
  std::uint64_t entry_calls = 0;

  void Pump() {
    while (cursor < trace->size() &&
           (*trace)[cursor].time <= simulator->Now()) {
      const dmasim::TraceRecord& record = (*trace)[cursor++];
      const Clock::time_point start = Clock::now();
      switch (record.kind) {
        case dmasim::TraceEventKind::kClientRead:
          server->ClientRead(record.page, record.bytes);
          request_pages->push_back(record.page);
          break;
        case dmasim::TraceEventKind::kClientWrite:
          server->ClientWrite(record.page, record.bytes);
          request_pages->push_back(record.page);
          break;
        case dmasim::TraceEventKind::kCpuAccess:
          server->CpuAccess(record.page, record.bytes);
          break;
      }
      entry_s += SecondsBetween(start, Clock::now());
      ++entry_calls;
    }
    if (cursor < trace->size()) {
      simulator->ScheduleAt((*trace)[cursor].time, [this]() { Pump(); });
    }
  }
};

}  // namespace

TracedRun RunTraced(const dmasim::Trace& trace, double miss_ratio,
                    Tick duration, const dmasim::SimulationOptions& options,
                    const std::string& workload_name, SpanRecorder* spans,
                    int run_id, int parent) {
  TracedRun out;
  LayerCosts& costs = out.costs;
  const Clock::time_point run_start = Clock::now();
  ScopedSpan run_span(spans, "run", run_id, parent);

  dmasim::Simulator simulator;
  std::unique_ptr<dmasim::LowPowerPolicy> policy = dmasim::MakePolicy(
      options.policy, options.thresholds, options.memory);
  dmasim::MemoryController controller(&simulator, options.memory,
                                      policy.get());
  dmasim::ServerConfig server_config = options.server;
  server_config.forced_miss_ratio = miss_ratio;
  dmasim::DataServer server(&simulator, &controller, server_config);

  std::vector<std::uint64_t> request_pages;
  TimedFeeder feeder{&simulator, &server, &trace, &request_pages};
  if (!trace.empty()) {
    simulator.ScheduleAt(trace[0].time, [&feeder]() { feeder.Pump(); });
  }

  // PL runs stop the kernel one tick before each layout interval to
  // replay the controller's plan on the counts it is about to use.
  const dmasim::PopularityLayoutConfig& pl = options.memory.dma.pl;
  std::optional<dmasim::LayoutManager> planner;
  std::vector<std::int32_t> page_to_chip;
  if (pl.enabled) {
    planner.emplace(pl, options.memory.chips, options.memory.pages_per_chip);
    page_to_chip.resize(options.memory.TotalPages());
  }
  const Tick end = duration + options.drain;
  Tick next_plan = pl.enabled ? pl.interval : end + 1;
  while (true) {
    const Tick until = next_plan <= end ? next_plan - 1 : end;
    const double entry_before = feeder.entry_s;
    const std::uint64_t calls_before = feeder.entry_calls;
    {
      const Clock::time_point start = Clock::now();
      ScopedSpan slice(spans, "sim.run", run_id, run_span.index());
      simulator.RunUntil(until);
      costs.sim_s += SecondsBetween(start, Clock::now());
      if (spans != nullptr) {
        spans->AddAggregate("server.entry", run_id, slice.index(),
                            feeder.entry_calls - calls_before,
                            feeder.entry_s - entry_before);
      }
    }
    if (until == end) break;
    for (std::uint64_t page = 0; page < page_to_chip.size(); ++page) {
      page_to_chip[page] = controller.ChipOf(page);
    }
    const Clock::time_point start = Clock::now();
    ScopedSpan plan_span(spans, "layout.plan", run_id, run_span.index());
    planner->Plan(controller.popularity().counts(), page_to_chip);
    costs.layout_plan_s += SecondsBetween(start, Clock::now());
    ++costs.layout_plans;
    next_plan += pl.interval;
  }
  costs.server_entry_s = feeder.entry_s;
  costs.server_entry_calls = feeder.entry_calls;

  {
    ScopedSpan collect(spans, "collect", run_id, run_span.index());
    out.results.workload = workload_name;
    out.results.scheme = dmasim::SchemeName(options.memory) + "/" +
                         dmasim::PolicyKindName(options.policy);
    dmasim::CollectRunResults(&simulator, &controller, &server,
                              &out.results);
  }
  for (int bus = 0; bus < controller.bus_count(); ++bus) {
    costs.io_chunks += controller.bus(bus).ChunksIssued();
  }

  {
    ScopedSpan replay(spans, "server.cache", run_id, run_span.index());
    const Clock::time_point start = Clock::now();
    dmasim::BufferCache cache(options.server.cache_pages);
    for (std::uint64_t page : request_pages) {
      if (!cache.Lookup(page)) cache.Insert(page);
    }
    costs.cache_replay_s = SecondsBetween(start, Clock::now());
    costs.cache_ops = request_pages.size();
  }
  costs.run_s = SecondsBetween(run_start, Clock::now());
  return out;
}

}  // namespace perfbench
