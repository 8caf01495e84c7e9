// fleet_scenario — a production-scale fleet on the sharded kernel.
//
// Simulates many memory-controller domains (default 32 domains x 32
// chips = 1024 chips, 32768 client streams each = ~1M streams) with a
// fraction of streams homed on remote domains, and executes the whole
// fleet with the conservative-lookahead sharded engine. The run is
// bit-identical for every --sim-threads value; the printed fingerprint
// is the proof the determinism suite pins.
//
// Examples:
//   fleet_scenario --sim-threads 8
//   fleet_scenario --domains 8 --duration-ms 50 --workload dss
//   fleet_scenario --sim-threads 4 --fingerprint-only
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "server/fleet_driver.h"
#include "trace/workloads.h"
#include "util/parse_number.h"

namespace {

using namespace dmasim;

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "fleet_scenario: " << message << "\n"
            << "Run with --help for usage.\n";
  std::exit(2);
}

// Flag bounds: generous for real use, small enough that every derived
// quantity (fleet chip totals, tick conversions) stays representable.
constexpr std::int64_t kMaxCount = 4096;  // Domains; chips per domain.
constexpr std::int64_t kMaxThreads = 1024;
constexpr double kMaxDurationMs = 1.0e9;
constexpr double kMaxLatencyUs = 1.0e9;

void PrintUsage() {
  std::cout <<
      R"(Usage: fleet_scenario [options]
  --domains N          memory-controller domains / engine shards
                       (default: 32)
  --sim-threads N      engine worker threads (default: 1 = serial;
                       results are bit-identical for any value)
  --duration-ms N      simulated milliseconds (default: 20)
  --workload NAME      per-domain workload: oltp-st, synth-st, oltp-db,
                       synth-db, dss (default: oltp-st)
  --chips N            memory chips per domain (default: 32)
  --streams N          client streams per domain (default: 32768)
  --remote-fraction F  fraction of streams homed remotely
                       (default: 0.05)
  --remote-latency-us N  one-way fleet hop, also the engine lookahead
                       (default: 20)
  --seed N             workload seed (default: preset)
  --fingerprint-only   print only the run fingerprint (for scripting)

Determinism proof kit (DESIGN.md section 15):
  --sched-fuzz-seed N  perturb worker scheduling from seed N (nonzero);
                       the run must stay bit-identical to seed 0
  --engine-fault NAME  seeded protocol violation: none, skip-barrier-sort,
                       deliver-early (CI divergence checks only)
  --window-digests FILE
                       record one digest per engine window and write them
                       to FILE (one hex value per line)
  --compare-window-digests FILE
                       compare this run's window digests against FILE and
                       report the first mismatching window (exit 3 on
                       divergence)
  --help               this text
)";
}

WorkloadSpec WorkloadByFlag(const std::string& flag) {
  if (flag == "oltp-st") return OltpStorageSpec();
  if (flag == "synth-st") return SyntheticStorageSpec();
  if (flag == "oltp-db") return OltpDatabaseSpec();
  if (flag == "synth-db") return SyntheticDatabaseSpec();
  if (flag == "dss") return DssStorageSpec();
  Fail("unknown workload '" + flag + "'");
}

// Flag values are parsed strictly; anything else is a usage error that
// names the flag, raised before the fleet is built.
std::int64_t IntFlag(const std::string& flag, const std::string& text,
                     std::int64_t min, std::int64_t max) {
  std::int64_t value = 0;
  if (!ParseInt64(text, min, max, &value)) {
    Fail(flag + " needs an integer in [" + std::to_string(min) + ", " +
         std::to_string(max) + "], got '" + text + "'");
  }
  return value;
}

std::uint64_t Uint64Flag(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  if (!ParseUint64(text, &value)) {
    Fail(flag + " needs an unsigned 64-bit integer, got '" + text + "'");
  }
  return value;
}

double DoubleFlag(const std::string& flag, const std::string& text,
                  double min, double max) {
  double value = 0.0;
  if (!ParseFiniteDouble(text, &value) || value < min || value > max) {
    std::ostringstream range;
    range << '[' << min << ", " << max << ']';
    Fail(flag + " needs a finite number in " + range.str() + ", got '" +
         text + "'");
  }
  return value;
}

// Reads a window-digest file (one hex value per line, blank lines
// ignored). A malformed line is a usage error located as path:line.
std::vector<std::uint64_t> ReadWindowDigests(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) Fail("cannot read '" + path + "'");
  std::vector<std::uint64_t> digests;
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty()) continue;
    std::uint64_t digest = 0;
    if (!ParseUint64(line, &digest, 16)) {
      Fail(path + ":" + std::to_string(number) +
           ": bad window digest '" + line + "' (want one hex value)");
    }
    digests.push_back(digest);
  }
  return digests;
}

void WriteWindowDigests(const std::vector<std::uint64_t>& digests,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) Fail("cannot write '" + path + "'");
  for (std::uint64_t digest : digests) {
    out << std::hex << std::setw(16) << std::setfill('0') << digest << "\n";
  }
}

// Returns the process exit code: 0 on a match, 3 on divergence (with the
// first mismatching window on stdout).
int CompareWindowDigests(const std::vector<std::uint64_t>& digests,
                         const std::vector<std::uint64_t>& baseline) {
  const std::size_t windows = std::min(digests.size(), baseline.size());
  for (std::size_t window = 0; window < windows; ++window) {
    if (digests[window] != baseline[window]) {
      std::cout << "window digests diverge at window " << window << " (run "
                << std::hex << std::setw(16) << std::setfill('0')
                << digests[window] << " vs baseline " << std::setw(16)
                << baseline[window] << ")\n";
      return 3;
    }
  }
  if (digests.size() != baseline.size()) {
    std::cout << "window digests diverge at window " << windows
              << " (run has " << std::dec << digests.size()
              << " windows, baseline " << baseline.size() << ")\n";
    return 3;
  }
  std::cout << "window digests match (" << std::dec << windows
            << " windows)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FleetOptions options;
  options.domains = 32;
  options.streams_per_domain = 32768;
  std::string workload_flag = "oltp-st";
  double duration_ms = 20.0;
  bool seed_set = false;
  std::uint64_t seed = 0;
  bool fingerprint_only = false;
  std::string digests_out_path;
  std::string digests_baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--domains") {
      options.domains = static_cast<int>(IntFlag(arg, next(), 1, kMaxCount));
    } else if (arg == "--sim-threads") {
      options.sim_threads =
          static_cast<int>(IntFlag(arg, next(), 1, kMaxThreads));
    } else if (arg == "--duration-ms") {
      duration_ms = DoubleFlag(arg, next(), 0.0, kMaxDurationMs);
      if (duration_ms <= 0.0) Fail("--duration-ms must be > 0");
    } else if (arg == "--workload") {
      workload_flag = next();
    } else if (arg == "--chips") {
      options.base.memory.chips =
          static_cast<int>(IntFlag(arg, next(), 1, kMaxCount));
    } else if (arg == "--streams") {
      options.streams_per_domain = Uint64Flag(arg, next());
      if (options.streams_per_domain == 0) Fail("--streams must be >= 1");
    } else if (arg == "--remote-fraction") {
      options.remote_fraction = DoubleFlag(arg, next(), 0.0, 1.0);
    } else if (arg == "--remote-latency-us") {
      const double latency_us = DoubleFlag(arg, next(), 0.0, kMaxLatencyUs);
      if (latency_us <= 0.0) Fail("--remote-latency-us must be > 0");
      options.remote_latency = static_cast<Tick>(latency_us * kMicrosecond);
    } else if (arg == "--seed") {
      seed = Uint64Flag(arg, next());
      seed_set = true;
    } else if (arg == "--fingerprint-only") {
      fingerprint_only = true;
    } else if (arg == "--sched-fuzz-seed") {
      options.sched_fuzz_seed = Uint64Flag(arg, next());
    } else if (arg == "--engine-fault") {
      const std::string name = next();
      if (!ParseEngineFault(name, &options.engine_fault)) {
        Fail("unknown engine fault '" + name + "'");
      }
    } else if (arg == "--window-digests") {
      digests_out_path = next();
      options.record_window_digests = true;
    } else if (arg == "--compare-window-digests") {
      digests_baseline_path = next();
      options.record_window_digests = true;
    } else {
      Fail("unknown option '" + arg + "'");
    }
  }

  options.workload = WorkloadByFlag(workload_flag);
  options.workload.duration = static_cast<Tick>(duration_ms * kMillisecond);
  if (seed_set) options.workload.seed = seed;
  // Validate the comparison baseline before spending the run on it.
  std::vector<std::uint64_t> digests_baseline;
  if (!digests_baseline_path.empty()) {
    digests_baseline = ReadWindowDigests(digests_baseline_path);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const FleetResults fleet = RunFleet(options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (!digests_out_path.empty()) {
    WriteWindowDigests(fleet.window_digests, digests_out_path);
  }
  if (!digests_baseline_path.empty()) {
    const int compare_exit =
        CompareWindowDigests(fleet.window_digests, digests_baseline);
    if (compare_exit != 0) return compare_exit;
  }

  if (fingerprint_only) {
    std::cout << fleet.Fingerprint() << "\n";
    return 0;
  }

  const double events_per_second =
      wall_seconds > 0.0
          ? static_cast<double>(fleet.stepped_events) / wall_seconds
          : 0.0;
  std::cout << "fleet: " << options.domains << " domains x "
            << options.base.memory.chips << " chips ("
            << options.domains * options.base.memory.chips
            << " chips total), "
            << options.domains * options.streams_per_domain
            << " client streams, workload " << options.workload.name << "\n"
            << "engine: " << options.sim_threads << " thread(s), "
            << fleet.engine.windows << " windows, "
            << fleet.engine.delivered_messages << " cross-shard messages, "
            << fleet.engine.mailbox_spills << " mailbox spills\n"
            << "events: " << fleet.stepped_events << " in " << wall_seconds
            << " s wall (" << events_per_second << " events/s)\n"
            << "remote reads: " << fleet.remote_sent << " sent, "
            << fleet.remote_completed << " completed, mean response "
            << fleet.remote_response.Mean() / kMicrosecond << " us\n"
            << "local reads: mean response "
            << fleet.client_response.Mean() / kMicrosecond << " us over "
            << fleet.client_response.Count() << " requests\n"
            << "energy: " << fleet.energy.Total().joules() << " J\n"
            << "fingerprint: " << fleet.Fingerprint() << "\n";
  return 0;
}
