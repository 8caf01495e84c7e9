#include "digest.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "stats/energy.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

class Fnv {
 public:
  void U64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= kFnvPrime;
    }
  }
  void I64(std::int64_t value) { U64(static_cast<std::uint64_t>(value)); }
  void F64(double value) { U64(std::bit_cast<std::uint64_t>(value)); }
  void Str(const std::string& value) {
    U64(value.size());
    for (unsigned char c : value) {
      hash_ ^= c;
      hash_ *= kFnvPrime;
    }
  }
  void Mean(const dmasim::RunningMean& mean) {
    U64(mean.Count());
    F64(mean.Sum());
    F64(mean.Min());
    F64(mean.Max());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::uint64_t OutcomeDigest(const dmasim::SimulationResults& r) {
  Fnv h;
  h.Str(r.workload);
  h.Str(r.scheme);
  h.I64(r.duration);
  for (int i = 0; i < dmasim::kEnergyBucketCount; ++i) {
    h.F64(r.energy.Of(static_cast<dmasim::EnergyBucket>(i)).joules());
  }
  h.F64(r.utilization_factor);
  h.Mean(r.client_response);
  h.Mean(r.chunk_service);
  h.Mean(r.transfer_latency);

  h.U64(r.controller.transfers_started);
  h.U64(r.controller.transfers_completed);
  h.U64(r.controller.cpu_accesses);
  h.U64(r.controller.migrations);
  h.U64(r.controller.migration_rounds);
  h.U64(r.controller.deferred_migrations);

  h.U64(r.server.reads);
  h.U64(r.server.writes);
  h.U64(r.server.hits);
  h.U64(r.server.misses);
  h.U64(r.server.cpu_accesses);

  h.U64(r.gated_requests);
  h.U64(r.releases_by_quorum);
  h.U64(r.releases_by_slack);
  h.I64(r.max_gated_buffer_bytes);
  h.F64(r.hottest_chip_share);

  h.U64(r.monitor.enabled ? 1 : 0);
  h.I64(r.monitor.regions);
  h.U64(r.monitor.probes);
  h.U64(r.monitor.observations);
  h.U64(r.monitor.splits);
  h.U64(r.monitor.merges);
  h.U64(r.monitor.aggregations);
  h.U64(r.monitor.scheme_matches);
  h.U64(r.monitor.demotions_requested);
  h.U64(r.monitor.demotions_applied);
  h.F64(r.monitor.overhead_fraction);
  h.F64(r.monitor.hotness_error);
  return h.value();
}

std::uint64_t TraceDigest(const dmasim::Trace& trace) {
  Fnv h;
  h.U64(trace.size());
  for (const dmasim::TraceRecord& record : trace) {
    h.I64(record.time);
    h.U64(static_cast<std::uint64_t>(record.kind));
    h.U64(record.page);
    h.I64(record.bytes);
  }
  return h.value();
}

std::string HexDigest(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

std::string ReferenceKey(const std::string& workload, std::uint64_t seed,
                         const std::string& label) {
  return workload + " " + std::to_string(seed) + " " + label;
}

bool LoadReferences(const std::string& path, ReferenceTable* table,
                    std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, label, hex, extra;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> seed >> label >> hex) || (fields >> extra) ||
        hex.size() != 16) {
      *error = path + ":" + std::to_string(line_number) +
               ": expected '<workload> <seed> <label> <16-digit hex>'";
      return false;
    }
    std::uint64_t digest = 0;
    try {
      digest = std::stoull(hex, nullptr, 16);
    } catch (...) {
      *error = path + ":" + std::to_string(line_number) + ": bad digest";
      return false;
    }
    (*table)[ReferenceKey(workload, seed, label)] = digest;
  }
  return true;
}

}  // namespace perfbench
