// Outcome digests for the benchmark's correctness gate.
//
// A run's digest covers what the simulation models: energy buckets,
// latencies, utilization, and the controller, server, aligner and
// monitor outcome statistics. It leaves out the event kernel's work
// counters (executed/stepped events, calendar statistics), which a
// faster kernel is expected to change, and every host clock. Fleet runs
// use FleetResults::Fingerprint() instead.
#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <map>
#include <string>

#include "server/simulation_driver.h"
#include "trace/trace.h"

namespace perfbench {

std::uint64_t OutcomeDigest(const dmasim::SimulationResults& results);
std::uint64_t TraceDigest(const dmasim::Trace& trace);

std::string HexDigest(std::uint64_t digest);

// Committed reference digests, keyed "<workload> <seed> <label>". The
// file holds one "<workload> <seed> <label> <hex digest>" entry a line;
// '#' starts a comment.
using ReferenceTable = std::map<std::string, std::uint64_t>;

// Returns false (with `error` set) when the file is unreadable or
// malformed.
bool LoadReferences(const std::string& path, ReferenceTable* table,
                    std::string* error);
std::string ReferenceKey(const std::string& workload, std::uint64_t seed,
                         const std::string& label);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
