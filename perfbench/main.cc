// dmasim benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --references FILE [--out FILE] [--source-id ID]
//             [--print-references]
//
// With --trace 0 it repeats untraced passes of the workload for S
// seconds and reports the end-to-end metrics (medians, with every time
// scaled to reference seconds by host-speed probes; host_probe.h);
// with --trace 1 it alternates an untraced and a traced pass and reports
// the per-layer metrics. Either way it checks every run's outcome
// digest (against the committed references where the seed has them,
// and against the first pass always), that a seeded mismatch is caught,
// and, when traced, that the traced runs' digests equal the untraced
// ones. The last line of standard output is
//   RESULT {"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}
// perfbench/run.py builds this program and forwards that object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "digest.h"
#include "exp/json.h"
#include "host_probe.h"
#include "spans.h"
#include "stats/energy.h"
#include "trace/workloads.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dmasim::Json;

// The paper's headline figures (the only reference numbers the
// repository has for the modelled outcome).
constexpr char kPaperCell[] = "OLTP-St/DMA-TA-PL(2)/cp=0.10";
constexpr double kPaperOltpPlSavingsPct = 38.6;
constexpr double kPaperActiveIdleDmaLo = 0.48;
constexpr double kPaperActiveIdleDmaHi = 0.51;

// Set-up repeats: at least kMinSetupReps times, then until
// kSetupBudgetS seconds have gone or kMaxSetupReps runs were made.
constexpr std::size_t kMinSetupReps = 3;
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kMaxSetupReps = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string references;
  std::string out;
  std::string source_id = "unknown";
  bool print_references = false;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --references FILE [--out FILE] "
               "[--source-id ID] [--print-references]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-references") {
      args.print_references = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--references") {
        args.references = value;
      } else if (flag == "--out") {
        args.out = value;
      } else if (flag == "--source-id") {
        args.source_id = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  if (args.references.empty()) Usage("--references is required");
  return args;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

Json LoadAverage() {
  double load[3] = {0.0, 0.0, 0.0};
  Json json = Json::Array();
  if (getloadavg(load, 3) == 3) {
    for (double value : load) json.Append(value);
  }
  return json;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Correctness gate ---------------------------------------------------

class Gate {
 public:
  Gate(const ReferenceTable* refs, std::string workload, std::uint64_t seed)
      : refs_(refs), workload_(std::move(workload)), seed_(seed) {
    const std::string prefix = ReferenceKey(workload_, seed_, "");
    for (auto it = refs_->lower_bound(prefix);
         it != refs_->end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      expected_.insert(it->first.substr(prefix.size()));
    }
  }

  bool has_references() const { return !expected_.empty(); }

  // Why `run` fails the gate, or "" when it passes.
  std::string Judge(const RunOutcome& run) const {
    if (!run.ok) return "status not ok: " + run.error;
    const auto it = refs_->find(ReferenceKey(workload_, seed_, run.label));
    if (it != refs_->end() && it->second != run.digest) {
      return "digest " + HexDigest(run.digest) + " != reference " +
             HexDigest(it->second);
    }
    return "";
  }

  // Counts and judges a pass. `expect` holds the digests every later
  // pass must reproduce, filled from the untraced passes.
  void CheckPass(const Pass& pass, bool traced,
                 std::map<std::string, std::uint64_t>* expect) {
    for (const RunOutcome& run : pass.runs) {
      ++attempted_;
      if (!traced) seen_.insert(run.label);
      std::string why = Judge(run);
      if (why.empty()) {
        const auto it = expect->find(run.label);
        if (it == expect->end()) {
          if (!traced) (*expect)[run.label] = run.digest;
        } else if (it->second != run.digest) {
          why = std::string(traced ? "traced" : "repeated") + " digest " +
                HexDigest(run.digest) + " != untraced " +
                HexDigest(it->second);
        }
      }
      if (!why.empty()) {
        ++failed_;
        Problem(run.label + ": " + why);
      }
    }
  }

  // Fails every reference run that no untraced pass made.
  void CheckMissing() {
    for (const std::string& label : expected_) {
      if (label.rfind("input:", 0) == 0 || seen_.count(label) > 0) continue;
      ++attempted_;
      ++failed_;
      Problem(label + ": reference run missing from the passes");
    }
  }

  void CheckInputs(const DigestList& inputs) {
    for (const auto& [label, digest] : inputs) {
      const auto it = refs_->find(ReferenceKey(workload_, seed_, label));
      if (it != refs_->end() && it->second != digest) {
        Problem(label + ": input digest " + HexDigest(digest) +
                " != reference " + HexDigest(it->second));
      }
    }
  }

  void Problem(const std::string& text) {
    problems_.push_back(text);
    std::cout << "gate: " << workload_ << " seed " << seed_ << ": " << text
              << "\n";
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  const ReferenceTable* refs_;
  std::string workload_;
  std::uint64_t seed_;
  std::set<std::string> expected_;
  std::set<std::string> seen_;  // Labels of runs in untraced passes.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

// The self-check's run: a 20 ms OLTP-St baseline.
dmasim::WorkloadSpec SelfCheckSpec() {
  dmasim::WorkloadSpec spec = dmasim::OltpStorageSpec();
  spec.duration = 20 * dmasim::kMillisecond;
  return spec;
}

RunOutcome SelfCheckRun(const dmasim::Trace& trace) {
  const dmasim::WorkloadSpec spec = SelfCheckSpec();
  RunOutcome run;
  run.label = spec.name + "/baseline";
  run.ok = true;
  run.digest = OutcomeDigest(dmasim::RunTrace(trace, spec.miss_ratio,
                                              spec.duration,
                                              dmasim::SimulationOptions{},
                                              spec.name));
  return run;
}

// Proves the gate can fail: the self-check run must match its committed
// digest, and the same run with one client read halved in size must not.
bool SelfCheck(const ReferenceTable& refs, Json* report) {
  const dmasim::Trace trace = dmasim::GenerateWorkload(SelfCheckSpec());
  dmasim::Trace seeded = trace;
  for (std::size_t i = seeded.size() / 2; i < seeded.size(); ++i) {
    if (seeded[i].kind == dmasim::TraceEventKind::kClientRead) {
      seeded[i].bytes /= 2;
      break;
    }
  }
  const Gate gate(&refs, "selfcheck", 0);
  const std::string pristine = gate.Judge(SelfCheckRun(trace));
  const std::string faulted = gate.Judge(SelfCheckRun(seeded));
  const bool ok = gate.has_references() && pristine.empty() && !faulted.empty();
  *report = Json::Object();
  report->Set("pristine", pristine.empty() ? "pass" : pristine);
  report->Set("seeded_mismatch", faulted.empty() ? "not caught" : faulted);
  report->Set("ok", ok);
  return ok;
}

std::string SelfCheckReferenceLine() {
  const RunOutcome run =
      SelfCheckRun(dmasim::GenerateWorkload(SelfCheckSpec()));
  return "selfcheck 0 " + run.label + " " + HexDigest(run.digest);
}

// --- Fidelity -------------------------------------------------------------

const RunOutcome* FindRun(const Pass& pass, const std::string& label) {
  for (const RunOutcome& run : pass.runs) {
    if (run.label == label) return &run;
  }
  return nullptr;
}

// The baseline of the trace `label` belongs to ("OLTP-St/..." ->
// "OLTP-St/baseline").
const RunOutcome* BaselineFor(const Pass& pass, const std::string& label) {
  return FindRun(pass, label.substr(0, label.find('/')) + "/baseline");
}

struct Fidelity {
  double savings_pct = 0.0;    // Headline cell; 0 without one.
  double paper_gap_pp = 0.0;   // When the headline is the paper's cell.
  bool has_paper_gap = false;
  double active_idle_dma_frac = 0.0;
  double low_power_frac = 0.0;
  int managed_runs = 0;
  std::vector<const RunOutcome*> violations;
};

Fidelity FidelityOf(const Workload& workload, const Pass& pass) {
  Fidelity fid;
  const std::string headline = workload.headline_label();
  const RunOutcome* head = headline.empty() ? nullptr : FindRun(pass, headline);
  if (head != nullptr && head->has_delta) {
    fid.savings_pct = 100.0 * head->savings;
  }
  if (head != nullptr && headline == kPaperCell) {
    fid.has_paper_gap = true;
    fid.paper_gap_pp = std::fabs(kPaperOltpPlSavingsPct - fid.savings_pct);
  }
  const RunOutcome* baseline =
      head != nullptr ? BaselineFor(pass, headline)
                      : (pass.runs.empty() ? nullptr : &pass.runs[0]);
  if (baseline != nullptr && baseline->ok) {
    fid.active_idle_dma_frac = baseline->results.energy.Fraction(
        dmasim::EnergyBucket::kActiveIdleDma);
    fid.low_power_frac =
        baseline->results.energy.Fraction(dmasim::EnergyBucket::kLowPower);
  }
  for (const RunOutcome& run : pass.runs) {
    if (run.is_baseline || !run.has_delta) continue;
    ++fid.managed_runs;
    if (run.degradation > run.cp_limit) fid.violations.push_back(&run);
  }
  return fid;
}

Json FidelityJson(const Fidelity& fid) {
  Json json = Json::Object();
  json.Set("savings_pct", fid.savings_pct);
  if (fid.has_paper_gap) {
    json.Set("paper_savings_pct", kPaperOltpPlSavingsPct);
    json.Set("paper_gap_pp", fid.paper_gap_pp);
  }
  json.Set("active_idle_dma_frac", fid.active_idle_dma_frac);
  json.Set("paper_active_idle_dma_frac", "0.48-0.51");
  json.Set("managed_runs", fid.managed_runs);
  Json violations = Json::Array();
  for (const RunOutcome* run : fid.violations) {
    Json entry = Json::Object();
    entry.Set("label", run->label);
    entry.Set("degradation", run->degradation);
    entry.Set("cp_limit", run->cp_limit);
    violations.Append(std::move(entry));
  }
  json.Set("cp_violations", std::move(violations));
  json.Set("validation",
           "the paper's published figures are the only reference; the "
           "model is otherwise unvalidated");
  return json;
}

void PrintFidelity(const Workload& workload, const Fidelity& fid) {
  std::printf("fidelity: %s headline saving %.2f%%", workload.name().c_str(),
              fid.savings_pct);
  if (fid.has_paper_gap) {
    std::printf(" (paper %.1f%%, gap %.2f pp)", kPaperOltpPlSavingsPct,
                fid.paper_gap_pp);
  }
  std::printf("; baseline Active Idle DMA share %.1f%% (paper %.0f-%.0f%%)\n",
              100.0 * fid.active_idle_dma_frac, 100.0 * kPaperActiveIdleDmaLo,
              100.0 * kPaperActiveIdleDmaHi);
  std::printf("fidelity: %zu of %d managed runs exceed their CP-Limit\n",
              fid.violations.size(), fid.managed_runs);
  for (const RunOutcome* run : fid.violations) {
    std::printf("cp-violation: %s degradation %.2f%% > limit %.0f%%\n",
                run->label.c_str(), 100.0 * run->degradation,
                100.0 * run->cp_limit);
  }
}

// --- Metrics ----------------------------------------------------------------

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    Json entry = Json::Object();
    entry.Set("value", value);
    entry.Set("unit", unit);
    json_.Set(name, std::move(entry));
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  const Json& json() const { return json_; }

 private:
  Json json_ = Json::Object();
};

double PassRate(const Pass& pass) { return Ratio(pass.sim_ms, pass.wall_s); }

void AddLayerMetrics(const Workload& workload, const SetupInfo& setup,
                     double generate_s, const std::vector<Pass>& untraced,
                     const std::vector<Pass>& traced, MetricSet* m) {
  const Pass& pass = traced.back();
  std::uint64_t events = 0, steps = 0, bucket_loads = 0, cascades = 0;
  std::uint64_t reads = 0, writes = 0, hits = 0, misses = 0;
  std::uint64_t transfers = 0, chunks = 0, cpu_accesses = 0;
  std::uint64_t gated = 0, quorum = 0, slack = 0;
  std::uint64_t plans = 0, migrations = 0, deferred = 0;
  std::uint64_t entry_calls = 0, cache_ops = 0;
  std::int64_t max_gated = 0;
  double sim_s = 0.0, entry_s = 0.0, cache_s = 0.0, plan_s = 0.0;
  double chunk_sum = 0.0, chunk_count = 0.0;
  const RunOutcome* monitored = nullptr;
  for (const RunOutcome& run : pass.runs) {
    if (!run.ok) continue;
    const dmasim::SimulationResults& r = run.results;
    events += r.executed_events;
    steps += r.stepped_events;
    bucket_loads += r.calendar.bucket_loads;
    cascades += r.calendar.cascades;
    reads += r.server.reads;
    writes += r.server.writes;
    hits += r.server.hits;
    misses += r.server.misses;
    transfers += r.controller.transfers_started;
    cpu_accesses += r.controller.cpu_accesses;
    gated += r.gated_requests;
    quorum += r.releases_by_quorum;
    slack += r.releases_by_slack;
    max_gated = std::max(max_gated, r.max_gated_buffer_bytes);
    migrations += r.controller.migrations;
    deferred += r.controller.deferred_migrations;
    chunk_sum += r.chunk_service.Sum();
    chunk_count += static_cast<double>(r.chunk_service.Count());
    chunks += run.costs.io_chunks;
    plans += run.costs.layout_plans;
    plan_s += run.costs.layout_plan_s;
    sim_s += run.costs.sim_s;
    entry_s += run.costs.server_entry_s;
    entry_calls += run.costs.server_entry_calls;
    cache_s += run.costs.cache_replay_s;
    cache_ops += run.costs.cache_ops;
    if (r.monitor.enabled) monitored = &run;
  }
  if (pass.has_fleet) sim_s = pass.fleet.serial_wall_s;

  m->Add("trace.records", static_cast<double>(setup.trace_records), "count");
  m->Add("trace.generate_s", generate_s, "s");

  m->Add("sim.events", static_cast<double>(events), "count");
  m->Add("sim.steps", static_cast<double>(steps), "count");
  m->Add("sim.step_frac",
         Ratio(static_cast<double>(steps), static_cast<double>(events)),
         "ratio");
  m->Add("sim.bucket_loads", static_cast<double>(bucket_loads), "count");
  m->Add("sim.cascades", static_cast<double>(cascades), "count");
  m->Add("sim.ns_per_step", 1e9 * Ratio(sim_s, static_cast<double>(steps)),
         "ns");

  const FleetStats& fleet = pass.fleet;
  const double windows = static_cast<double>(fleet.engine.windows);
  m->Add("engine.windows", windows, "count");
  m->Add("engine.events_per_shard_window",
         Ratio(static_cast<double>(events), windows * fleet.domains), "count");
  m->Add("engine.messages",
         static_cast<double>(fleet.engine.delivered_messages), "count");
  m->Add("engine.mailbox_spills",
         static_cast<double>(fleet.engine.mailbox_spills), "count");
  m->Add("engine.speedup", Ratio(fleet.serial_wall_s, fleet.parallel_wall_s),
         "x");
  m->Add("engine.cpu_per_wall",
         Ratio(fleet.parallel_cpu_s, fleet.parallel_wall_s), "ratio");

  const double requests = static_cast<double>(reads + writes);
  m->Add("server.requests", requests, "count");
  m->Add("server.write_frac", Ratio(static_cast<double>(writes), requests),
         "ratio");
  m->Add("server.hit_frac",
         Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
         "ratio");
  m->Add("server.cache_ns_per_op",
         1e9 * Ratio(cache_s, static_cast<double>(cache_ops)), "ns");
  m->Add("server.entry_ns",
         1e9 * Ratio(entry_s, static_cast<double>(entry_calls)), "ns");

  m->Add("io.transfers", static_cast<double>(transfers), "count");
  m->Add("io.chunks", static_cast<double>(chunks), "count");
  m->Add("io.chunk_service_ticks", Ratio(chunk_sum, chunk_count), "ticks");

  const std::string headline = workload.headline_label();
  const RunOutcome* head = headline.empty() ? nullptr : FindRun(pass, headline);
  const Fidelity fid = FidelityOf(workload, pass);
  m->Add("core.gated", static_cast<double>(gated), "count");
  m->Add("core.quorum_release_frac",
         Ratio(static_cast<double>(quorum),
               static_cast<double>(quorum + slack)),
         "ratio");
  m->Add("core.max_gated_bytes", static_cast<double>(max_gated), "bytes");
  m->Add("core.uf", head != nullptr ? head->results.utilization_factor : 0.0,
         "ratio");
  double ta_host_share = 0.0;
  const RunOutcome* first_trace =
      pass.runs.empty() ? nullptr : BaselineFor(pass, pass.runs[0].label);
  if (first_trace != nullptr) {
    const std::string trace_name =
        first_trace->label.substr(0, first_trace->label.find('/'));
    const RunOutcome* ta = FindRun(pass, trace_name + "/DMA-TA/cp=0.10");
    if (ta != nullptr) {
      ta_host_share = 1.0 - Ratio(first_trace->costs.run_s, ta->costs.run_s);
    }
  }
  m->Add("core.ta_host_share", ta_host_share, "ratio");
  m->Add("core.cp_violation_frac",
         Ratio(static_cast<double>(fid.violations.size()), fid.managed_runs),
         "ratio");

  m->Add("layout.plans", static_cast<double>(plans), "count");
  m->Add("layout.plan_ms", 1e3 * Ratio(plan_s, static_cast<double>(plans)),
         "ms");
  m->Add("layout.migrations", static_cast<double>(migrations), "count");
  m->Add("layout.deferred", static_cast<double>(deferred), "count");

  m->Add("mem.cpu_accesses", static_cast<double>(cpu_accesses), "count");
  m->Add("mem.active_idle_dma_frac", fid.active_idle_dma_frac, "ratio");
  m->Add("mem.low_power_frac", fid.low_power_frac, "ratio");

  double mon_host_share = 0.0;
  if (monitored != nullptr) {
    std::string plain_label = monitored->label;
    plain_label.erase(plain_label.find("+mon"), 4);
    const RunOutcome* plain = FindRun(pass, plain_label);
    if (plain != nullptr) {
      mon_host_share = 1.0 - Ratio(plain->costs.run_s, monitored->costs.run_s);
    }
  }
  const dmasim::MonitorSummary mon =
      monitored != nullptr ? monitored->results.monitor
                           : dmasim::MonitorSummary{};
  m->Add("mon.probes", static_cast<double>(mon.probes), "count");
  m->Add("mon.observations", static_cast<double>(mon.observations), "count");
  m->Add("mon.useful_probe_frac",
         Ratio(static_cast<double>(mon.observations),
               static_cast<double>(mon.probes)),
         "ratio");
  m->Add("mon.regions", static_cast<double>(mon.regions), "count");
  m->Add("mon.hotness_error", monitored != nullptr ? mon.hotness_error : 0.0,
         "ratio");
  m->Add("mon.host_share", mon_host_share, "ratio");

  std::vector<double> run_s_sum, parallel_eff, idle;
  for (const Pass& p : untraced) {
    run_s_sum.push_back(p.run_s_sum);
    parallel_eff.push_back(
        Ratio(p.run_s_sum, workload.workers() * p.wall_s));
    idle.push_back(p.phase1_idle_s);
  }
  const bool uses_exp = untraced.back().has_sweep;
  m->Add("exp.runs",
         uses_exp ? static_cast<double>(untraced.back().runs.size()) : 0.0,
         "count");
  m->Add("exp.run_s_sum", uses_exp ? Median(run_s_sum) : 0.0, "s");
  m->Add("exp.parallel_eff", uses_exp ? Median(parallel_eff) : 0.0, "ratio");
  m->Add("exp.phase1_idle_s", uses_exp ? Median(idle) : 0.0, "s");

  m->Add("fidelity.savings_pct", fid.savings_pct, "%");
  m->Add("fidelity.paper_gap_pp", fid.paper_gap_pp, "pp");

  // Best untraced pass against best traced pass, as sim_ms_per_s.
  std::vector<double> untraced_rate, traced_rate;
  for (const Pass& p : untraced) untraced_rate.push_back(PassRate(p));
  for (const Pass& p : traced) traced_rate.push_back(PassRate(p));
  m->Add("tracing.overhead",
         Ratio(*std::max_element(untraced_rate.begin(), untraced_rate.end()),
               *std::max_element(traced_rate.begin(), traced_rate.end())) -
             1.0,
         "ratio");
}

Json PassJson(const Pass& pass, bool traced) {
  Json json = Json::Object();
  json.Set("traced", traced);
  json.Set("wall_s", pass.wall_s);
  json.Set("cpu_s", pass.cpu_s);
  json.Set("sim_ms", pass.sim_ms);
  json.Set("sim_ms_per_s", PassRate(pass));
  Json runs = Json::Array();
  for (const RunOutcome& run : pass.runs) {
    Json entry = Json::Object();
    entry.Set("label", run.label);
    entry.Set("ok", run.ok);
    entry.Set("digest", HexDigest(run.digest));
    entry.Set("wall_s", run.wall_s);
    if (run.has_delta) {
      entry.Set("savings", run.savings);
      entry.Set("degradation", run.degradation);
    }
    runs.Append(std::move(entry));
  }
  json.Set("runs", std::move(runs));
  return json;
}

Json HostJson(const Args& args, const Workload& workload,
              const Json& load_start) {
  Json host = Json::Object();
  host.Set("source", args.source_id);
  host.Set("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.Set("load_start", load_start);
  host.Set("load_end", LoadAverage());
  host.Set("compiler", PERFBENCH_COMPILER);
  host.Set("build_type", PERFBENCH_BUILD_TYPE);
  host.Set("cxx_flags", PERFBENCH_CXX_FLAGS);
  host.Set("workers", workload.workers());
  return host;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: built without optimisation (" PERFBENCH_BUILD_TYPE
               "); its numbers would be invalid, so none are reported\n";
  return 3;
#endif
  const Json load_start = LoadAverage();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    Usage("unknown workload '" + args.workload + "'; known:" + names);
  }

  ReferenceTable refs;
  std::string error;
  if (!LoadReferences(args.references, &refs, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }

  // Set-up: trace generation and spec expansion, repeated; the inputs
  // are hashed for the gate afterwards, outside the timed region.
  std::vector<double> setup_s, generate_s;
  SetupInfo setup;
  double setup_total = 0.0;
  // Both probes are made first, so their tables are resident through the
  // whole run and can be taken off its peak resident set exactly.
  HostProbe setup_probe = HostProbe::ForSetup();
  HostProbe probe = HostProbe::ForSimulation(workload->workers());
  const double setup_probe_before = setup_probe.Sample();
  while (setup_s.size() < kMinSetupReps ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetupReps)) {
    const Clock::time_point start = Clock::now();
    setup = workload->Setup(args.seed);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    setup_total += setup_s.back();
    generate_s.push_back(setup.generate_s);
  }
  const double setup_scale =
      setup_probe.Scale(setup_probe_before, setup_probe.Sample());
  const DigestList inputs = workload->InputDigests();

  if (args.print_references) {
    Pass pass = workload->Run();
    const Pass extras = workload->RunTracedExtras();
    pass.runs.insert(pass.runs.end(), extras.runs.begin(), extras.runs.end());
    for (const auto& [label, digest] : inputs) {
      std::cout << workload->name() << " " << args.seed << " " << label << " "
                << HexDigest(digest) << "\n";
    }
    for (const RunOutcome& run : pass.runs) {
      if (!run.ok) {
        std::cerr << "perfbench: " << run.label << " failed: " << run.error
                  << "\n";
        return 1;
      }
      std::cout << workload->name() << " " << args.seed << " " << run.label
                << " " << HexDigest(run.digest) << "\n";
    }
    std::cout << SelfCheckReferenceLine() << "\n";
    return 0;
  }

  Gate gate(&refs, workload->name(), args.seed);
  gate.CheckInputs(inputs);
  std::map<std::string, std::uint64_t> expect;
  std::vector<Pass> untraced, traced;
  std::vector<double> pass_scale;  // Of each untraced pass (host_probe.h).
  SpanRecorder spans(Clock::now());
  const Clock::time_point timed_start = Clock::now();
  double probe_before = probe.Sample();
  do {
    untraced.push_back(workload->Run());
    const double probe_after = probe.Sample();
    pass_scale.push_back(probe.Scale(probe_before, probe_after));
    probe_before = probe_after;
    gate.CheckPass(untraced.back(), false, &expect);
    if (untraced.size() > 1 &&
        untraced.back().artifact != untraced.front().artifact) {
      gate.Problem("pass " + std::to_string(untraced.size()) +
                   " serialised differently from pass 1");
    }
    if (untraced.size() == 1) {
      gate.CheckPass(workload->RunTracedExtras(), false, &expect);
      probe_before = probe.Sample();
    }
    if (args.trace == 1) {
      traced.push_back(workload->RunTraced(&spans));
      gate.CheckPass(traced.back(), true, &expect);
      probe_before = probe.Sample();
    }
  } while (SecondsBetween(timed_start, Clock::now()) < args.seconds);
  gate.CheckMissing();

  Json self_check;
  if (!SelfCheck(refs, &self_check)) {
    gate.Problem("seeded-mismatch self-check failed: " +
                 self_check.Dump(false));
  }

  const Fidelity fid = FidelityOf(*workload, untraced.front());
  PrintFidelity(*workload, fid);

  // The end-to-end set comes from the untraced passes and is printed by
  // every run; a traced run reports the per-layer set in its result.
  // Times are in reference seconds (host_probe.h); medians over the
  // passes after the first, which warms the caches and the allocator.
  MetricSet end_to_end;
  std::vector<double> rate, cpu;
  for (std::size_t i = untraced.size() > 1 ? 1 : 0; i < untraced.size(); ++i) {
    rate.push_back(PassRate(untraced[i]) / pass_scale[i]);
    cpu.push_back(untraced[i].cpu_s * pass_scale[i]);
  }
  end_to_end.Add("sim_ms_per_s", Median(rate), "ms/s");
  end_to_end.Add("cpu_s", Median(cpu), "s");
  end_to_end.Add("setup_s", Median(setup_s) * setup_scale, "s");
  end_to_end.Add("peak_rss_mb",
                 PeakRssMb() - (probe.ResidentBytes() +
                                setup_probe.ResidentBytes()) /
                                   (1024.0 * 1024.0),
                 "MB");
  MetricSet per_layer;
  if (args.trace == 1) {
    AddLayerMetrics(*workload, setup, Median(generate_s), untraced, traced,
                    &per_layer);
    per_layer.Add("host.probe_ms", 1e3 * probe.median_s(), "ms");
  }
  const MetricSet& metrics = args.trace == 0 ? end_to_end : per_layer;

  const bool correct = gate.problems().empty() && gate.failed() == 0;
  if (!args.out.empty()) {
    Json record = Json::Object();
    record.Set("workload", workload->name());
    record.Set("seed", args.seed);
    record.Set("trace", args.trace);
    record.Set("host", HostJson(args, *workload, load_start));
    record.Set("correct", correct);
    Json problems = Json::Array();
    for (const std::string& problem : gate.problems()) problems.Append(problem);
    record.Set("problems", std::move(problems));
    record.Set("self_check", self_check);
    record.Set("fidelity", FidelityJson(fid));
    Json setups = Json::Array();
    for (double s : setup_s) setups.Append(s);
    record.Set("setup_s", std::move(setups));
    Json probe_json = Json::Object();
    Json samples = Json::Array();
    for (double s : probe.samples()) samples.Append(s);
    probe_json.Set("samples_s", std::move(samples));
    Json timings = Json::Array();
    for (double s : probe.timings()) timings.Append(s);
    probe_json.Set("timings_s", std::move(timings));
    Json setup_samples = Json::Array();
    for (double s : setup_probe.samples()) setup_samples.Append(s);
    probe_json.Set("setup_samples_s", std::move(setup_samples));
    probe_json.Set("setup_scale", setup_scale);
    record.Set("probe", std::move(probe_json));
    Json passes = Json::Array();
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      Json pass = PassJson(untraced[i], false);
      pass.Set("scale", pass_scale[i]);
      passes.Append(std::move(pass));
    }
    for (const Pass& pass : traced) passes.Append(PassJson(pass, true));
    record.Set("passes", std::move(passes));
    record.Set("end_to_end", end_to_end.json());
    if (args.trace == 1) record.Set("per_layer", per_layer.json());
    if (args.trace == 1) record.Set("spans", spans.ToJson());
    std::ofstream out(args.out);
    out << record.Dump(true) << "\n";
    if (!out.good()) {
      std::cerr << "perfbench: cannot write " << args.out << "\n";
      return 1;
    }
  }

  Json result = Json::Object();
  result.Set("correct", correct);
  result.Set("attempted", gate.attempted());
  result.Set("failed", gate.failed());
  result.Set("metrics", metrics.json());
  std::cout << "RESULT " << result.Dump(false) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
