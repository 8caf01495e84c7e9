// SimulationObserver: wires the observability layer (src/obs) into one
// simulated system — metrics registry at level 1, plus event tracing at
// level 2 — and detaches it again on destruction.
//
// The observer is strictly read-only with respect to the simulation: it
// registers histograms/counters, hands the components their hook
// pointers, and at `Finish()` freezes everything into `MetricSample`s
// (deriving the counter values from the components' own statistics, so a
// mid-run crash never leaves half-updated metrics). The class is always
// compiled in; the drivers construct one only when
// SimulationOptions::obs_level >= 1, and until then every component hook
// pointer stays null.
#ifndef DMASIM_OBS_SIMULATION_OBS_H_
#define DMASIM_OBS_SIMULATION_OBS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/memory_controller.h"
#include "mem/power_model.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "server/data_server.h"
#include "sim/simulator.h"

namespace dmasim {
class ShardedEngine;  // sim/sharded_engine.h; only the .cc reads stats.
}

namespace dmasim {

class SimulationObserver {
 public:
  struct Options {
    // 0 = nothing attached, 1 = metrics only, 2 = metrics + event trace.
    int level = 1;
    // Event-trace buffer bound; events past it are dropped and counted.
    std::size_t trace_capacity = std::size_t{1} << 20;
    // When set, the event kernel's calendar-queue internals (bucket
    // occupancy, cascades, overflow refills) are exported as `sim.*`
    // metrics. Must outlive the observer.
    const Simulator* simulator = nullptr;
    // When set, the sharded engine's window/mailbox counters are
    // exported as `sim.*` metrics (`sim.mailbox_spills`,
    // `sim.max_mailbox_occupancy`, ...). The engine refreshes them at
    // every window barrier — not just at Run() exit — so the values are
    // window-accurate whenever Finish() runs. Must outlive the observer.
    const ShardedEngine* engine = nullptr;
  };

  // Attaches to `controller` (and its chips and buses) and `server`
  // (may be null). Both must outlive the observer.
  SimulationObserver(MemoryController* controller, DataServer* server,
                     const Options& options);
  ~SimulationObserver();

  SimulationObserver(const SimulationObserver&) = delete;
  SimulationObserver& operator=(const SimulationObserver&) = delete;

  int level() const { return level_; }

  // Finalizes the run: settles/synchronizes component accounting, closes
  // the chips' open residency intervals (level >= 2), and copies the
  // component statistics into the registered counters and gauges. Call
  // once, after the simulation has run to completion.
  void Finish();

  std::vector<MetricSample> SnapshotMetrics() const {
    return registry_.Snapshot();
  }

  // Null below effective level 2.
  const EventTracer* tracer() const { return tracer_.get(); }

 private:
  void RegisterMetrics();

  MemoryController* controller_;
  DataServer* server_;
  const Simulator* simulator_;
  const ShardedEngine* engine_;
  int level_;

  MetricsRegistry registry_;

  // Registered slots filled at Finish() (all owned by `registry_`).
  struct ControllerSlots {
    std::uint64_t* transfers_started = nullptr;
    std::uint64_t* transfers_completed = nullptr;
    std::uint64_t* cpu_accesses = nullptr;
    std::uint64_t* migrations = nullptr;
    std::uint64_t* migration_rounds = nullptr;
    std::uint64_t* deferred_migrations = nullptr;
  } controller_slots_;
  struct DmaTaSlots {
    std::uint64_t* gated_total = nullptr;
    std::uint64_t* released_quorum = nullptr;
    std::uint64_t* released_slack = nullptr;
    double* max_buffered_bytes = nullptr;
    double* slack_final_ticks = nullptr;
  } dma_ta_slots_;
  struct ChipSlots {
    std::uint64_t* wakeups = nullptr;
    std::uint64_t* step_downs = nullptr;
    std::uint64_t* dma_requests = nullptr;
    std::uint64_t* cpu_requests = nullptr;
    std::uint64_t* migration_requests = nullptr;
    std::uint64_t* dma_serving_ticks = nullptr;
    std::uint64_t* cpu_serving_ticks = nullptr;
    std::uint64_t* migration_serving_ticks = nullptr;
    std::uint64_t* active_idle_dma_ticks = nullptr;
    std::uint64_t* active_idle_threshold_ticks = nullptr;
    std::uint64_t* transition_ticks = nullptr;
    std::uint64_t* low_power_ticks[kPowerStateCount] = {};
  } chip_slots_;
  struct BusSlots {
    std::uint64_t* chunks_issued = nullptr;
    std::uint64_t* transfers_started = nullptr;
  } bus_slots_;
  // Registered only when Options::simulator is set.
  struct SimSlots {
    std::uint64_t* executed_events = nullptr;
    std::uint64_t* stepped_events = nullptr;
    std::uint64_t* calendar_bucket_loads = nullptr;
    std::uint64_t* calendar_cascades = nullptr;
    std::uint64_t* calendar_overflow_refills = nullptr;
    std::uint64_t* calendar_max_bucket_events = nullptr;
    std::uint64_t* calendar_max_cascade_events = nullptr;
    std::uint64_t* calendar_max_overflow_events = nullptr;
  } sim_slots_;
  // Registered only when Options::engine is set (sharded runs).
  struct EngineSlots {
    std::uint64_t* windows = nullptr;
    std::uint64_t* delivered_messages = nullptr;
    std::uint64_t* mailbox_spills = nullptr;
    std::uint64_t* max_mailbox_occupancy = nullptr;
  } engine_slots_;
  struct ServerSlots {
    std::uint64_t* reads = nullptr;
    std::uint64_t* writes = nullptr;
    std::uint64_t* hits = nullptr;
    std::uint64_t* misses = nullptr;
    std::uint64_t* cpu_accesses = nullptr;
  } server_slots_;
  // Registered only when the controller runs with the access monitor.
  struct MonitorSlots {
    std::uint64_t* regions = nullptr;
    std::uint64_t* probes = nullptr;
    std::uint64_t* observations = nullptr;
    std::uint64_t* splits = nullptr;
    std::uint64_t* merges = nullptr;
    std::uint64_t* aggregations = nullptr;
    std::uint64_t* scheme_matches = nullptr;
    std::uint64_t* demotions_requested = nullptr;
    std::uint64_t* demotions_applied = nullptr;
    double* overhead_fraction = nullptr;
    double* hotness_error = nullptr;
  } monitor_slots_;

  std::uint64_t* releases_by_cause_[kReleaseCauseCount] = {};
  std::uint64_t* recorded_events_ = nullptr;
  std::uint64_t* dropped_events_ = nullptr;
  std::unique_ptr<EventTracer> tracer_;
};

}  // namespace dmasim

#endif  // DMASIM_OBS_SIMULATION_OBS_H_
