#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "digest.h"
#include "exp/experiment_spec.h"
#include "exp/result_sink.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"
#include "mon/scheme_parser.h"
#include "server/fleet_driver.h"
#include "trace/workloads.h"
#include "util/random.h"

namespace perfbench {
namespace {

using dmasim::kMillisecond;
using dmasim::Tick;

// Workload sizes (simulated time per run).
constexpr Tick kStorageDuration = 1000 * kMillisecond;
constexpr Tick kMonitoredDuration = 2000 * kMillisecond;
constexpr Tick kFleetDuration = 200 * kMillisecond;
constexpr int kFleetDomains = 32;
constexpr double kHeadlineCp = 0.10;
constexpr char kSchemeFile[] = "examples/schemes/hot_cold.scheme";

int HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Workers of the multi-threaded workloads: half the CPUs, at most two.
// The host's other tenants share its CPUs, so a pass that needs every
// CPU at once times the scheduler more than the simulator.
int ParallelWorkers() { return std::clamp(HostCpus() / 2, 1, 2); }

// Process CPU seconds (user + sys, all threads).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double SimulatedMs(const dmasim::SimulationResults& results) {
  return static_cast<double>(results.duration) / kMillisecond;
}

// Records which worker completed which run, and when, so the runner's
// idle time at the baseline -> dependent barrier can be derived.
class CompletionSink : public dmasim::ResultSink {
 public:
  explicit CompletionSink(Clock::time_point start) : start_(start) {}

  void OnRunComplete(const dmasim::RunRecord& record) override {
    if (!record.plan.is_baseline) return;
    const double t = SecondsBetween(start_, Clock::now());
    phase1_end_ = std::max(phase1_end_, t);
    double& last = last_baseline_[std::this_thread::get_id()];
    last = std::max(last, t);
  }

  double Phase1IdleSeconds(int workers) const {
    double idle = phase1_end_ *
                  static_cast<double>(workers -
                                      static_cast<int>(last_baseline_.size()));
    for (const auto& [thread, last] : last_baseline_) {
      idle += phase1_end_ - last;
    }
    return idle;
  }

 private:
  Clock::time_point start_;
  double phase1_end_ = 0.0;
  std::map<std::thread::id, double> last_baseline_;
};

RunOutcome OutcomeOf(const dmasim::RunRecord& record) {
  RunOutcome out;
  out.label = record.plan.Label();
  out.ok = record.ok();
  out.error = record.error;
  out.is_baseline = record.plan.is_baseline;
  out.cp_limit = record.plan.cp_limit;
  out.has_delta = record.has_baseline_delta;
  out.savings = record.energy_savings;
  out.degradation = record.response_degradation;
  out.wall_s = record.wall_seconds;
  if (out.ok) {
    out.results = record.results;
    out.digest = OutcomeDigest(record.results);
  }
  return out;
}

void SetDelta(const RunOutcome& baseline, RunOutcome* out) {
  if (!out->ok || !baseline.ok) return;
  out->has_delta = true;
  out->savings = out->results.EnergySavingsVs(baseline.results);
  out->degradation = out->results.ResponseDegradationVs(baseline.results);
}

// --- SweepRunner workloads -------------------------------------------------

class SweepWorkload : public Workload {
 public:
  SweepWorkload(std::string name, std::vector<dmasim::WorkloadSpec> traces,
                std::vector<dmasim::SchemeSpec> schemes,
                std::vector<double> cp_limits, int workers,
                std::string headline)
      : name_(std::move(name)),
        traces_(std::move(traces)),
        schemes_(std::move(schemes)),
        cp_limits_(std::move(cp_limits)),
        workers_(workers),
        headline_(std::move(headline)) {}

  std::string name() const override { return name_; }
  int workers() const override { return workers_; }
  std::string headline_label() const override { return headline_; }

  SetupInfo Setup(std::uint64_t seed) override {
    spec_ = dmasim::ExperimentSpec{};
    spec_.name = name_;
    spec_.workloads = traces_;
    spec_.schemes = schemes_;
    spec_.cp_limits = cp_limits_;
    if (seed != 0) spec_.seeds = {seed};
    grid_ = dmasim::ExpandGrid(spec_);

    SetupInfo info;
    for (const dmasim::RunPlan& plan : grid_.runs) {
      if (!plan.is_baseline) continue;
      const Clock::time_point start = Clock::now();
      const dmasim::Trace trace = dmasim::GenerateWorkload(plan.workload);
      info.generate_s += SecondsBetween(start, Clock::now());
      info.trace_records += trace.size();
    }
    return info;
  }

  DigestList InputDigests() const override {
    DigestList digests;
    for (const dmasim::RunPlan& plan : grid_.runs) {
      if (!plan.is_baseline) continue;
      const dmasim::Trace trace = dmasim::GenerateWorkload(plan.workload);
      digests.emplace_back("input:" + plan.workload.name, TraceDigest(trace));
    }
    return digests;
  }

  Pass Run() override {
    Pass pass;
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    CompletionSink sink(start);
    dmasim::SweepOptions options;
    options.threads = workers_;
    dmasim::SweepRunner runner(options);
    runner.AddSink(&sink);
    const dmasim::SweepResults sweep = runner.Run(spec_);
    pass.wall_s = SecondsBetween(start, Clock::now());
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;

    for (const dmasim::RunRecord& record : sweep.records) {
      pass.runs.push_back(OutcomeOf(record));
      pass.run_s_sum += record.wall_seconds;
      if (record.ok()) pass.sim_ms += SimulatedMs(record.results);
    }
    pass.has_sweep = true;
    pass.phase1_idle_s = sink.Phase1IdleSeconds(workers_);
    pass.artifact = dmasim::SweepToJson(sweep.summary, sweep.records,
                                        /*include_timing=*/false)
                        .Dump(false);
    return pass;
  }

  // The runner's two phases (baselines, then mu-calibrated dependents)
  // on the same number of workers, with every run through RunTraced.
  Pass RunTraced(SpanRecorder* spans) override {
    Pass pass;
    const std::size_t count = grid_.runs.size();
    pass.runs.resize(count);
    std::vector<SpanRecorder> recorders(count, SpanRecorder(spans->epoch()));
    std::vector<dmasim::CpCalibration> calibration(
        static_cast<std::size_t>(grid_.cell_count));
    std::vector<std::size_t> baseline_of(
        static_cast<std::size_t>(grid_.cell_count), 0);

    const auto execute = [&](std::size_t i) {
      const dmasim::RunPlan& plan = grid_.runs[i];
      RunOutcome& out = pass.runs[i];
      out.label = plan.Label();
      out.is_baseline = plan.is_baseline;
      out.cp_limit = plan.cp_limit;
      dmasim::SimulationOptions options = plan.options;
      options.server.request_compute_time = plan.workload.request_compute_time;
      if (!plan.is_baseline) {
        options.memory.dma.ta.mu =
            calibration[static_cast<std::size_t>(plan.cell_id)].MuFor(
                plan.cp_limit);
      }
      out.error = dmasim::ValidateOptions(options);
      if (!out.error.empty()) return;
      SpanRecorder* recorder = &recorders[i];
      try {
        dmasim::Trace trace;
        {
          ScopedSpan span(recorder, "trace.generate", plan.run_id, -1);
          trace = dmasim::GenerateWorkload(plan.workload);
        }
        TracedRun traced =
            perfbench::RunTraced(trace, plan.workload.miss_ratio,
                                 plan.workload.duration, options,
                                 plan.workload.name, recorder, plan.run_id,
                                 -1);
        out.ok = true;
        out.results = std::move(traced.results);
        out.costs = traced.costs;
        out.wall_s = traced.costs.run_s;
        out.digest = OutcomeDigest(out.results);
      } catch (const std::exception& e) {
        // As SweepRunner does: an execution error fails the run only.
        out.error = e.what();
      }
    };

    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const int pass_span = spans->Begin("exp.pass", -1, -1);
    {
      dmasim::ThreadPool pool(workers_);
      for (std::size_t i = 0; i < count; ++i) {
        if (!grid_.runs[i].is_baseline) continue;
        baseline_of[static_cast<std::size_t>(grid_.runs[i].cell_id)] = i;
        pool.Submit([&execute, i]() { execute(i); });
      }
      pool.Wait();
      for (std::size_t i = 0; i < count; ++i) {
        if (!grid_.runs[i].is_baseline || !pass.runs[i].ok) continue;
        calibration[static_cast<std::size_t>(grid_.runs[i].cell_id)] =
            dmasim::Calibrate(pass.runs[i].results);
      }
      for (std::size_t i = 0; i < count; ++i) {
        const dmasim::RunPlan& plan = grid_.runs[i];
        if (plan.is_baseline) continue;
        if (!pass.runs[baseline_of[static_cast<std::size_t>(plan.cell_id)]]
                 .ok) {
          pass.runs[i].label = plan.Label();
          pass.runs[i].error = "cell baseline failed";
          continue;
        }
        pool.Submit([&execute, i]() { execute(i); });
      }
      pool.Wait();
    }
    spans->End(pass_span);
    pass.wall_s = SecondsBetween(start, Clock::now());
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    pass.has_sweep = true;

    for (std::size_t i = 0; i < count; ++i) {
      spans->Merge(recorders[i], pass_span);
      RunOutcome& out = pass.runs[i];
      if (!out.ok) continue;
      pass.sim_ms += SimulatedMs(out.results);
      pass.run_s_sum += out.wall_s;
      if (!out.is_baseline) {
        SetDelta(pass.runs[baseline_of[static_cast<std::size_t>(
                     grid_.runs[i].cell_id)]],
                 &out);
      }
    }
    return pass;
  }

 private:
  std::string name_;
  std::vector<dmasim::WorkloadSpec> traces_;
  std::vector<dmasim::SchemeSpec> schemes_;
  std::vector<double> cp_limits_;
  int workers_;
  std::string headline_;
  dmasim::ExperimentSpec spec_;
  dmasim::RunGrid grid_;
};

// --- RunTrace workloads -----------------------------------------------------

// One trace, generated by Setup and fed to RunTrace: the baseline, then
// one managed scheme at kHeadlineCp with mu from the baseline's
// calibration, fed by the region monitor with the committed hot/cold
// schemes (monitor_eval's configuration). These are SweepRunner's two
// phases on one worker, without its trace generation inside every run.
class MonitoredWorkload : public Workload {
 public:
  MonitoredWorkload(std::string name, dmasim::WorkloadSpec spec,
                    dmasim::SchemeSpec scheme)
      : name_(std::move(name)), preset_(std::move(spec)), scheme_(scheme) {}

  std::string name() const override { return name_; }
  int workers() const override { return 1; }
  std::string headline_label() const override { return ManagedLabel(true); }

  SetupInfo Setup(std::uint64_t seed) override {
    spec_ = preset_;
    base_ = dmasim::SimulationOptions{};
    base_.server.request_compute_time = spec_.request_compute_time;
    if (seed != 0) {
      // The experiment engine's seed rule (ExpandGrid).
      spec_.seed = seed;
      std::uint64_t mix = seed;
      base_.server.seed = dmasim::SplitMix64(mix);
    }
    const dmasim::SchemeParseResult schemes =
        dmasim::ParseSchemeFile(kSchemeFile);
    if (!schemes.ok()) {
      throw std::runtime_error(std::string(kSchemeFile) + ": " +
                               schemes.error);
    }
    rules_ = schemes.rules;

    SetupInfo info;
    trace_ = dmasim::Trace{};  // So two traces are never held at once.
    const Clock::time_point start = Clock::now();
    trace_ = dmasim::GenerateWorkload(spec_);
    info.generate_s = SecondsBetween(start, Clock::now());
    info.trace_records = trace_.size();
    return info;
  }

  DigestList InputDigests() const override {
    return {{"input:" + spec_.name, TraceDigest(trace_)}};
  }

  Pass Run() override {
    Pass pass;
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    pass.runs.push_back(Simulate(base_, BaselineLabel(), true));
    mu_ = dmasim::Calibrate(pass.runs[0].results).MuFor(kHeadlineCp);
    pass.runs.push_back(
        Simulate(ManagedOptions(true), headline_label(), false));
    pass.wall_s = SecondsBetween(start, Clock::now());
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    Finish(&pass);
    for (const RunOutcome& run : pass.runs) {
      pass.artifact +=
          dmasim::SimulationResultsToJson(run.results).Dump(false) + "\n";
    }
    return pass;
  }

  // The traced pass adds the same policy without the monitor, so the
  // monitor's host cost (mon.host_share) is measured on the same trace.
  Pass RunTraced(SpanRecorder* spans) override {
    Pass pass;
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const int pass_span = spans->Begin("exp.pass", -1, -1);
    pass.runs.push_back(Traced(base_, BaselineLabel(), true, spans, 0,
                               pass_span));
    mu_ = dmasim::Calibrate(pass.runs[0].results).MuFor(kHeadlineCp);
    pass.runs.push_back(Traced(ManagedOptions(true), headline_label(),
                               false, spans, 1, pass_span));
    pass.runs.push_back(Traced(ManagedOptions(false), ManagedLabel(false),
                               false, spans, 2, pass_span));
    spans->End(pass_span);
    pass.wall_s = SecondsBetween(start, Clock::now());
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    Finish(&pass);
    return pass;
  }

  Pass RunTracedExtras() override {
    Pass pass;
    pass.runs.push_back(
        Simulate(ManagedOptions(false), ManagedLabel(false), false));
    return pass;
  }

 private:
  std::string BaselineLabel() const { return preset_.name + "/baseline"; }
  // RunPlan::Label() style, with "+mon" when the monitor feeds PL.
  std::string ManagedLabel(bool monitored) const {
    return preset_.name + "/" + scheme_.Label() + (monitored ? "+mon" : "") +
           "/cp=0.10";
  }

  // The managed scheme at the last calibrated mu.
  dmasim::SimulationOptions ManagedOptions(bool monitored) const {
    dmasim::SimulationOptions options = base_;
    options.memory.dma.ta.enabled = true;
    options.memory.dma.ta.mu = mu_;
    if (scheme_.kind == dmasim::SchemeKind::kTaPl) {
      options.memory.dma.pl.enabled = true;
      options.memory.dma.pl.groups = scheme_.pl_groups;
    }
    if (monitored) {
      options.memory.monitor.enabled = true;
      options.memory.monitor.rules = rules_;
    }
    return options;
  }

  RunOutcome Simulate(const dmasim::SimulationOptions& options,
                      const std::string& label, bool baseline) const {
    RunOutcome out;
    out.label = label;
    out.is_baseline = baseline;
    out.cp_limit = baseline ? -1.0 : kHeadlineCp;
    const Clock::time_point start = Clock::now();
    out.results = dmasim::RunTrace(trace_, spec_.miss_ratio, spec_.duration,
                                   options, spec_.name);
    out.wall_s = SecondsBetween(start, Clock::now());
    out.ok = true;
    out.digest = OutcomeDigest(out.results);
    return out;
  }

  RunOutcome Traced(const dmasim::SimulationOptions& options,
                    const std::string& label, bool baseline,
                    SpanRecorder* spans, int run_id, int parent) const {
    RunOutcome out;
    out.label = label;
    out.is_baseline = baseline;
    out.cp_limit = baseline ? -1.0 : kHeadlineCp;
    TracedRun traced =
        perfbench::RunTraced(trace_, spec_.miss_ratio, spec_.duration,
                             options, spec_.name, spans, run_id, parent);
    out.results = std::move(traced.results);
    out.costs = traced.costs;
    out.wall_s = traced.costs.run_s;
    out.ok = true;
    out.digest = OutcomeDigest(out.results);
    return out;
  }

  static void Finish(Pass* pass) {
    const RunOutcome& baseline = pass->runs[0];
    for (RunOutcome& run : pass->runs) {
      pass->sim_ms += SimulatedMs(run.results);
      pass->run_s_sum += run.wall_s;
      if (!run.is_baseline) SetDelta(baseline, &run);
    }
  }

  std::string name_;
  dmasim::WorkloadSpec preset_;
  dmasim::SchemeSpec scheme_;
  dmasim::WorkloadSpec spec_;
  dmasim::SimulationOptions base_;
  std::vector<dmasim::SchemeRule> rules_;
  dmasim::Trace trace_;
  double mu_ = 0.0;
};

// --- RunFleet workload ------------------------------------------------------

class FleetWorkload : public Workload {
 public:
  std::string name() const override { return "fleet"; }
  int workers() const override { return workers_; }
  std::string headline_label() const override { return ""; }

  SetupInfo Setup(std::uint64_t seed) override {
    options_ = dmasim::FleetOptions{};
    options_.domains = kFleetDomains;
    options_.sim_threads = workers();
    options_.streams_per_domain = 32768;
    options_.remote_fraction = 0.05;
    options_.workload = dmasim::OltpStorageSpec();
    options_.workload.duration = kFleetDuration;
    if (seed != 0) options_.workload.seed = seed;

    // The domains' inputs, for the trace layer's record count.
    SetupInfo info;
    for (const dmasim::WorkloadSpec& spec : DomainSpecs()) {
      const Clock::time_point start = Clock::now();
      const dmasim::Trace trace = dmasim::GenerateWorkload(spec);
      info.generate_s += SecondsBetween(start, Clock::now());
      info.trace_records += trace.size();
    }
    return info;
  }

  DigestList InputDigests() const override {
    std::uint64_t combined = 0;
    for (const dmasim::WorkloadSpec& spec : DomainSpecs()) {
      combined = combined * 1099511628211ULL ^
                 TraceDigest(dmasim::GenerateWorkload(spec));
    }
    return {{"input:domains", combined}};
  }

  Pass Run() override {
    Pass pass;
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const dmasim::FleetResults fleet = dmasim::RunFleet(options_);
    pass.wall_s = SecondsBetween(start, Clock::now());
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    Record(fleet, &pass);
    pass.fleet.parallel_wall_s = pass.wall_s;
    pass.fleet.parallel_cpu_s = pass.cpu_s;
    return pass;
  }

  // The same fleet on one engine thread and on `workers()` threads; both
  // fingerprints must equal the untraced pass's.
  Pass RunTraced(SpanRecorder* spans) override {
    Pass pass;
    const int pass_span = spans->Begin("exp.pass", -1, -1);
    dmasim::FleetOptions serial = options_;
    serial.sim_threads = 1;
    Clock::time_point start = Clock::now();
    dmasim::FleetResults serial_fleet;
    {
      ScopedSpan span(spans, "engine.serial", 0, pass_span);
      serial_fleet = dmasim::RunFleet(serial);
    }
    pass.fleet.serial_wall_s = SecondsBetween(start, Clock::now());

    start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    dmasim::FleetResults fleet;
    {
      ScopedSpan span(spans, "engine.parallel", 1, pass_span);
      fleet = dmasim::RunFleet(options_);
    }
    pass.wall_s = SecondsBetween(start, Clock::now());
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    spans->End(pass_span);
    Record(fleet, &pass);
    RunOutcome& run = pass.runs[0];
    if (serial_fleet.Fingerprint() != run.digest) {
      run.ok = false;
      run.error = "1-thread fingerprint " +
                  HexDigest(serial_fleet.Fingerprint()) + " != " +
                  std::to_string(options_.sim_threads) + "-thread " +
                  HexDigest(run.digest);
    }
    pass.fleet.parallel_wall_s = pass.wall_s;
    pass.fleet.parallel_cpu_s = pass.cpu_s;
    return pass;
  }

 private:
  // The domains' trace specs, derived as RunFleet derives them.
  std::vector<dmasim::WorkloadSpec> DomainSpecs() const {
    std::vector<dmasim::WorkloadSpec> specs;
    for (int i = 0; i < options_.domains; ++i) {
      std::uint64_t seed_state =
          options_.workload.seed +
          0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
      dmasim::SplitMix64(seed_state);  // The domain's server seed.
      specs.push_back(options_.workload);
      specs.back().seed = dmasim::SplitMix64(seed_state);
    }
    return specs;
  }

  void Record(const dmasim::FleetResults& fleet, Pass* pass) const {
    RunOutcome out;
    out.label = "fleet/" + options_.workload.name + "/x" +
                std::to_string(options_.domains);
    out.ok = true;
    out.is_baseline = true;
    out.wall_s = pass->wall_s;
    out.digest = fleet.Fingerprint();
    // Fleet-wide sums in the single-system shape the layer metrics read.
    dmasim::SimulationResults& sum = out.results;
    sum.duration = fleet.duration;
    sum.energy = fleet.energy;
    sum.client_response = fleet.client_response;
    sum.executed_events = fleet.executed_events;
    sum.stepped_events = fleet.stepped_events;
    for (const dmasim::FleetDomainResults& domain : fleet.domains) {
      const dmasim::SimulationResults& r = domain.results;
      pass->sim_ms += SimulatedMs(r);
      sum.controller.transfers_started += r.controller.transfers_started;
      sum.controller.transfers_completed += r.controller.transfers_completed;
      sum.controller.cpu_accesses += r.controller.cpu_accesses;
      sum.chunk_service.Merge(r.chunk_service);
      sum.gated_requests += r.gated_requests;
      sum.releases_by_quorum += r.releases_by_quorum;
      sum.releases_by_slack += r.releases_by_slack;
      sum.server.reads += r.server.reads;
      sum.server.writes += r.server.writes;
      sum.server.hits += r.server.hits;
      sum.server.misses += r.server.misses;
      sum.calendar.bucket_loads += r.calendar.bucket_loads;
      sum.calendar.cascades += r.calendar.cascades;
    }
    pass->runs.push_back(out);
    pass->artifact = HexDigest(out.digest);
    pass->run_s_sum = pass->wall_s;
    pass->has_fleet = true;
    pass->fleet.domains = options_.domains;
    pass->fleet.engine = fleet.engine;
  }

  const int workers_ = ParallelWorkers();
  dmasim::FleetOptions options_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"storage-sweep", "monitored", "fleet"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "storage-sweep") {
    dmasim::WorkloadSpec oltp = dmasim::OltpStorageSpec();
    dmasim::WorkloadSpec synthetic = dmasim::SyntheticStorageSpec();
    dmasim::WorkloadSpec dss = dmasim::DssStorageSpec();
    dmasim::WorkloadSpec writes = dmasim::OltpStorageSpec();
    writes.name = "OLTP-St-W30";
    writes.write_fraction = 0.30;
    std::vector<dmasim::WorkloadSpec> traces = {oltp, synthetic, dss, writes};
    for (dmasim::WorkloadSpec& trace : traces) {
      trace.duration = kStorageDuration;
    }
    return std::make_unique<SweepWorkload>(
        name, traces,
        std::vector<dmasim::SchemeSpec>{dmasim::TaScheme(),
                                        dmasim::TaPlScheme(2)},
        std::vector<double>{0.05, 0.10, 0.20}, ParallelWorkers(),
        "OLTP-St/DMA-TA-PL(2)/cp=0.10");
  }
  if (name == "monitored") {
    dmasim::WorkloadSpec oltp = dmasim::OltpStorageSpec();
    oltp.duration = kMonitoredDuration;
    return std::make_unique<MonitoredWorkload>(name, oltp,
                                               dmasim::TaPlScheme(2));
  }
  if (name == "fleet") return std::make_unique<FleetWorkload>();
  return nullptr;
}

}  // namespace perfbench
