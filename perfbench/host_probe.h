// Host-speed probes for the benchmark's timings.
//
// The host's other tenants change its speed by up to 1.9x over minutes
// (NOTES.md, "Stability"), in CPU time as well as wall time. A probe runs
// a fixed amount of simulator-shaped work that shares no code with dmasim
// (a binary-heap event loop that updates a table) and times it. The
// benchmark probes before and after its set-ups and each timed pass, and
// scales each timing to a host on which the probe takes its nominal time:
// a change to dmasim moves the passes but not the probe, while a slow
// phase of the host moves both.
//
// The slow phases hit memory-bound work harder than cache-resident work,
// so each kind of timing has the probe whose footprint matches it (the
// measurements are in NOTES.md):
//   * simulation passes: the loop over a 16 MiB and then a 64 MiB table,
//     one copy per worker at once, nominal 45 ms;
//   * set-up (trace generation): the loop over a 256 KiB table, one copy,
//     nominal 17.5 ms.
// The nominal times are the probes' times on the 4-vCPU host NOTES.md
// describes, in a quiet phase, so reference seconds are seconds of that
// host then.
#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  static HostProbe ForSimulation(int workers);
  static HostProbe ForSetup();

  // Times the probe now, keeps the time and returns it. The time is the
  // mean of three timings, as a pass's time is the mean of the host's
  // speed over the pass: the best of three follows the host's fastest
  // moments and scaled storage-sweep's passes worse (NOTES.md).
  double Sample();

  // Factor that turns a time measured between two samples into
  // reference seconds: the nominal time over their mean.
  double Scale(double before_s, double after_s) const {
    return nominal_s_ / (0.5 * (before_s + after_s));
  }

  const std::vector<double>& samples() const { return samples_; }
  // Every timing, three a sample, for the record.
  const std::vector<double>& timings() const { return timings_; }
  double median_s() const;

  // Memory the tables keep resident, to be left out of the process's
  // peak resident set when the program's own peak is reported.
  double ResidentBytes() const;

 private:
  // `copies` loops run at once, each on its own table, which is
  // allocated and touched here and stays resident. Each timing runs every
  // copy over the first `footprints[i]` words of its table, in turn.
  HostProbe(int copies, std::vector<std::size_t> footprints,
            double nominal_s);

  double TimeOnce();

  std::vector<std::size_t> footprints_;
  double nominal_s_;
  std::vector<std::vector<std::uint64_t>> tables_;
  std::vector<double> samples_;
  std::vector<double> timings_;
  std::uint64_t sink_ = 0;  // Keeps the work observable.
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
