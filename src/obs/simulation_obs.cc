#include "obs/simulation_obs.h"

#include <string>

#include "core/temporal_aligner.h"
#include "sim/sharded_engine.h"

namespace dmasim {

namespace {

// Histogram ranges in ticks (picoseconds). Out-of-range samples clamp
// into the edge bins, so these only set the resolution window.
constexpr double kGateDelayHi = 2.0e7;         // 20 us.
constexpr double kTransferLatencyHi = 2.0e10;  // 20 ms.
constexpr double kResponseTimeHi = 5.0e10;     // 50 ms.

}  // namespace

SimulationObserver::SimulationObserver(MemoryController* controller,
                                       DataServer* server,
                                       const Options& options)
    : controller_(controller),
      server_(server),
      simulator_(options.simulator),
      engine_(options.engine),
      level_(options.level) {
  DMASIM_EXPECTS(controller_ != nullptr);
  DMASIM_EXPECTS(level_ >= 0 && level_ <= 2);
  if (level_ < 1) return;

  RegisterMetrics();

  MemoryController::ObsHooks controller_hooks;
  controller_hooks.gate_delay = registry_.AddHistogram(
      "controller", "gate_delay_ticks", 0.0, kGateDelayHi, 40);
  controller_hooks.transfer_latency = registry_.AddHistogram(
      "controller", "transfer_latency_ticks", 0.0, kTransferLatencyHi, 40);

  DataServer::ObsHooks server_hooks;
  if (server_ != nullptr) {
    server_hooks.response_time = registry_.AddHistogram(
        "server", "response_time_ticks", 0.0, kResponseTimeHi, 50);
  }

  if (level_ >= 2) {
    for (int cause = 0; cause < kReleaseCauseCount; ++cause) {
      releases_by_cause_[cause] = registry_.AddCounter(
          "dma_ta", std::string("release_cause_") +
                        ReleaseCauseName(static_cast<ReleaseCause>(cause)));
    }
    recorded_events_ = registry_.AddCounter("tracer", "recorded_events");
    dropped_events_ = registry_.AddCounter("tracer", "dropped_events");

    // dmasim-lint: allow(heap-alloc) -- one-time construction.
    tracer_ = std::make_unique<EventTracer>(options.trace_capacity);
    for (int i = 0; i < controller_->chip_count(); ++i) {
      controller_->chip(i).SetObsTracer(tracer_.get());
    }
    for (int i = 0; i < controller_->bus_count(); ++i) {
      controller_->bus(i).SetObsTracer(tracer_.get());
    }
    controller_hooks.tracer = tracer_.get();
    server_hooks.tracer = tracer_.get();
  }

  controller_->SetObsHooks(controller_hooks);
  if (server_ != nullptr) server_->SetObsHooks(server_hooks);
}

SimulationObserver::~SimulationObserver() {
  if (level_ < 1) return;
  controller_->SetObsHooks(MemoryController::ObsHooks{});
  if (server_ != nullptr) server_->SetObsHooks(DataServer::ObsHooks{});
  if (tracer_ != nullptr) {
    for (int i = 0; i < controller_->chip_count(); ++i) {
      controller_->chip(i).SetObsTracer(nullptr);
    }
    for (int i = 0; i < controller_->bus_count(); ++i) {
      controller_->bus(i).SetObsTracer(nullptr);
    }
  }
}

void SimulationObserver::RegisterMetrics() {
  controller_slots_.transfers_started =
      registry_.AddCounter("controller", "transfers_started");
  controller_slots_.transfers_completed =
      registry_.AddCounter("controller", "transfers_completed");
  controller_slots_.cpu_accesses =
      registry_.AddCounter("controller", "cpu_accesses");
  controller_slots_.migrations = registry_.AddCounter("controller",
                                                      "migrations");
  controller_slots_.migration_rounds =
      registry_.AddCounter("controller", "migration_rounds");
  controller_slots_.deferred_migrations =
      registry_.AddCounter("controller", "deferred_migrations");

  dma_ta_slots_.gated_total = registry_.AddCounter("dma_ta", "gated_total");
  dma_ta_slots_.released_quorum =
      registry_.AddCounter("dma_ta", "released_quorum");
  dma_ta_slots_.released_slack =
      registry_.AddCounter("dma_ta", "released_slack");
  dma_ta_slots_.max_buffered_bytes =
      registry_.AddGauge("dma_ta", "max_buffered_bytes");
  dma_ta_slots_.slack_final_ticks =
      registry_.AddGauge("dma_ta", "slack_final_ticks");

  chip_slots_.wakeups = registry_.AddCounter("chips", "wakeups");
  chip_slots_.step_downs = registry_.AddCounter("chips", "step_downs");
  chip_slots_.dma_requests = registry_.AddCounter("chips", "dma_requests");
  chip_slots_.cpu_requests = registry_.AddCounter("chips", "cpu_requests");
  chip_slots_.migration_requests =
      registry_.AddCounter("chips", "migration_requests");
  chip_slots_.dma_serving_ticks =
      registry_.AddCounter("chips", "dma_serving_ticks");
  chip_slots_.cpu_serving_ticks =
      registry_.AddCounter("chips", "cpu_serving_ticks");
  chip_slots_.migration_serving_ticks =
      registry_.AddCounter("chips", "migration_serving_ticks");
  chip_slots_.active_idle_dma_ticks =
      registry_.AddCounter("chips", "active_idle_dma_ticks");
  chip_slots_.active_idle_threshold_ticks =
      registry_.AddCounter("chips", "active_idle_threshold_ticks");
  chip_slots_.transition_ticks =
      registry_.AddCounter("chips", "transition_ticks");
  for (int state = 0; state < kPowerStateCount; ++state) {
    chip_slots_.low_power_ticks[state] = registry_.AddCounter(
        "chips",
        std::string(PowerStateName(static_cast<PowerState>(state))) +
            "_residency_ticks");
  }

  bus_slots_.chunks_issued = registry_.AddCounter("buses", "chunks_issued");
  bus_slots_.transfers_started =
      registry_.AddCounter("buses", "transfers_started");

  if (simulator_ != nullptr) {
    sim_slots_.executed_events =
        registry_.AddCounter("sim", "executed_events");
    sim_slots_.stepped_events = registry_.AddCounter("sim", "stepped_events");
    sim_slots_.calendar_bucket_loads =
        registry_.AddCounter("sim", "calendar_bucket_loads");
    sim_slots_.calendar_cascades =
        registry_.AddCounter("sim", "calendar_cascades");
    sim_slots_.calendar_overflow_refills =
        registry_.AddCounter("sim", "calendar_overflow_refills");
    sim_slots_.calendar_max_bucket_events =
        registry_.AddCounter("sim", "calendar_max_bucket_events");
    sim_slots_.calendar_max_cascade_events =
        registry_.AddCounter("sim", "calendar_max_cascade_events");
    sim_slots_.calendar_max_overflow_events =
        registry_.AddCounter("sim", "calendar_max_overflow_events");
  }

  if (engine_ != nullptr) {
    engine_slots_.windows = registry_.AddCounter("sim", "engine_windows");
    engine_slots_.delivered_messages =
        registry_.AddCounter("sim", "engine_delivered_messages");
    engine_slots_.mailbox_spills =
        registry_.AddCounter("sim", "mailbox_spills");
    engine_slots_.max_mailbox_occupancy =
        registry_.AddCounter("sim", "max_mailbox_occupancy");
  }

  if (server_ != nullptr) {
    server_slots_.reads = registry_.AddCounter("server", "reads");
    server_slots_.writes = registry_.AddCounter("server", "writes");
    server_slots_.hits = registry_.AddCounter("server", "hits");
    server_slots_.misses = registry_.AddCounter("server", "misses");
    server_slots_.cpu_accesses = registry_.AddCounter("server",
                                                      "cpu_accesses");
  }

  if (controller_->monitor() != nullptr) {
    monitor_slots_.regions = registry_.AddCounter("monitor", "regions");
    monitor_slots_.probes = registry_.AddCounter("monitor", "probes");
    monitor_slots_.observations =
        registry_.AddCounter("monitor", "observations");
    monitor_slots_.splits = registry_.AddCounter("monitor", "splits");
    monitor_slots_.merges = registry_.AddCounter("monitor", "merges");
    monitor_slots_.aggregations =
        registry_.AddCounter("monitor", "aggregations");
    monitor_slots_.scheme_matches =
        registry_.AddCounter("monitor", "scheme_matches");
    monitor_slots_.demotions_requested =
        registry_.AddCounter("monitor", "demotions_requested");
    monitor_slots_.demotions_applied =
        registry_.AddCounter("monitor", "demotions_applied");
    monitor_slots_.overhead_fraction =
        registry_.AddGauge("monitor", "overhead_fraction");
    monitor_slots_.hotness_error =
        registry_.AddGauge("monitor", "hotness_error");
  }
}

void SimulationObserver::Finish() {
  if (level_ < 1) return;
  // Settles coalesced runs and integrates every chip's accounting up to
  // the current time (idempotent, so an earlier CollectEnergy is fine).
  controller_->CollectEnergy();

  if (tracer_ != nullptr) {
    for (int i = 0; i < controller_->chip_count(); ++i) {
      controller_->chip(i).FlushObsResidency();
    }
  }

  const ControllerStats& cs = controller_->stats();
  *controller_slots_.transfers_started = cs.transfers_started;
  *controller_slots_.transfers_completed = cs.transfers_completed;
  *controller_slots_.cpu_accesses = cs.cpu_accesses;
  *controller_slots_.migrations = cs.migrations;
  *controller_slots_.migration_rounds = cs.migration_rounds;
  *controller_slots_.deferred_migrations = cs.deferred_migrations;

  const TemporalAligner& aligner = controller_->aligner();
  *dma_ta_slots_.gated_total = aligner.TotalGated();
  *dma_ta_slots_.released_quorum = aligner.ReleasedByQuorum();
  *dma_ta_slots_.released_slack = aligner.ReleasedBySlack();
  *dma_ta_slots_.max_buffered_bytes =
      static_cast<double>(aligner.MaxBufferedBytes());
  *dma_ta_slots_.slack_final_ticks = aligner.slack().slack();

  for (int i = 0; i < controller_->chip_count(); ++i) {
    const ChipStats& stats = controller_->chip(i).stats();
    *chip_slots_.wakeups += stats.wakeups;
    *chip_slots_.step_downs += stats.step_downs;
    *chip_slots_.dma_requests += stats.dma_requests;
    *chip_slots_.cpu_requests += stats.cpu_requests;
    *chip_slots_.migration_requests += stats.migration_requests;
    *chip_slots_.dma_serving_ticks +=
        static_cast<std::uint64_t>(stats.dma_serving);
    *chip_slots_.cpu_serving_ticks +=
        static_cast<std::uint64_t>(stats.cpu_serving);
    *chip_slots_.migration_serving_ticks +=
        static_cast<std::uint64_t>(stats.migration_serving);
    *chip_slots_.active_idle_dma_ticks +=
        static_cast<std::uint64_t>(stats.active_idle_dma);
    *chip_slots_.active_idle_threshold_ticks +=
        static_cast<std::uint64_t>(stats.active_idle_threshold);
    *chip_slots_.transition_ticks +=
        static_cast<std::uint64_t>(stats.transition);
    for (int state = 0; state < kPowerStateCount; ++state) {
      *chip_slots_.low_power_ticks[state] +=
          static_cast<std::uint64_t>(stats.low_power[state]);
    }
  }

  for (int i = 0; i < controller_->bus_count(); ++i) {
    *bus_slots_.chunks_issued += controller_->bus(i).ChunksIssued();
    *bus_slots_.transfers_started += controller_->bus(i).TransfersStarted();
  }

  if (simulator_ != nullptr) {
    const Simulator::CalendarStats& calendar = simulator_->calendar_stats();
    *sim_slots_.executed_events = simulator_->ExecutedEvents();
    *sim_slots_.stepped_events = simulator_->SteppedEvents();
    *sim_slots_.calendar_bucket_loads = calendar.bucket_loads;
    *sim_slots_.calendar_cascades = calendar.cascades;
    *sim_slots_.calendar_overflow_refills = calendar.overflow_refills;
    *sim_slots_.calendar_max_bucket_events = calendar.max_bucket_events;
    *sim_slots_.calendar_max_cascade_events = calendar.max_cascade_events;
    *sim_slots_.calendar_max_overflow_events = calendar.max_overflow_events;
  }

  if (engine_ != nullptr) {
    // The engine refreshes these at every window barrier, so they are
    // current through the last completed window even if the run stopped
    // short of its bound.
    const ShardedEngine::Stats& engine_stats = engine_->stats();
    *engine_slots_.windows = engine_stats.windows;
    *engine_slots_.delivered_messages = engine_stats.delivered_messages;
    *engine_slots_.mailbox_spills = engine_stats.mailbox_spills;
    *engine_slots_.max_mailbox_occupancy = engine_stats.max_mailbox_occupancy;
  }

  if (server_ != nullptr) {
    const ServerStats& stats = server_->stats();
    *server_slots_.reads = stats.reads;
    *server_slots_.writes = stats.writes;
    *server_slots_.hits = stats.hits;
    *server_slots_.misses = stats.misses;
    *server_slots_.cpu_accesses = stats.cpu_accesses;
  }

  if (controller_->monitor() != nullptr) {
    const RegionMonitor& monitor = *controller_->monitor();
    *monitor_slots_.regions = monitor.regions().size();
    *monitor_slots_.probes = monitor.stats().probes;
    *monitor_slots_.observations = monitor.stats().observations;
    *monitor_slots_.splits = monitor.stats().splits;
    *monitor_slots_.merges = monitor.stats().merges;
    *monitor_slots_.aggregations = monitor.stats().aggregations;
    *monitor_slots_.scheme_matches = monitor.stats().scheme_region_matches;
    *monitor_slots_.demotions_requested = monitor.stats().demotions_requested;
    *monitor_slots_.demotions_applied = monitor.stats().demotions_applied;
    // CollectEnergy (above) synced every chip to the current simulated
    // time, so any chip's accounted_until is "now" for the fraction.
    *monitor_slots_.overhead_fraction =
        monitor.OverheadFraction(controller_->chip(0).accounted_until());
    *monitor_slots_.hotness_error = monitor.latest_hotness_error();
  }

  if (tracer_ != nullptr) {
    tracer_->ForEach([this](const ObsEvent& event) {
      if (event.kind == ObsEventKind::kRelease &&
          event.a < kReleaseCauseCount) {
        *releases_by_cause_[event.a] += 1;
      }
    });
    *recorded_events_ = tracer_->size();
    *dropped_events_ = tracer_->dropped();
  }
}

}  // namespace dmasim
