// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call from the benchmark into a dmasim layer: its
// name ("sim.run", "layout.plan", ...), host start and end, the span
// that caused it, and the simulation run it belongs to. Calls too short
// and too many to record one by one (the server entry points, millions
// per run) are folded into one aggregate span per enclosing span that
// carries their call count and summed duration. Nothing is written while
// the workload runs; the spans are serialised once it has finished.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point end);

struct Span {
  std::string name;
  int run_id = -1;   // -1: workload-level span.
  int parent = -1;   // Index in the owning recorder; -1 = root.
  double start_s = 0.0;  // Since the recorder's epoch.
  double end_s = 0.0;
  // An aggregate span stands for `calls` calls spread over its parent's
  // interval; busy_s is their summed time (end - start for plain spans).
  bool aggregate = false;
  std::uint64_t calls = 1;
  double busy_s = 0.0;
};

// Per-name totals: busy time, self time (busy minus the busy time of
// direct children) and call count.
struct SpanTotals {
  double busy_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  // Opens a span and returns its index.
  int Begin(const std::string& name, int run_id, int parent);
  void End(int index);

  // Records `calls` calls totalling `busy_s` seconds inside `parent`.
  void AddAggregate(const std::string& name, int run_id, int parent,
                    std::uint64_t calls, double busy_s);

  // Appends `other`'s spans, re-rooting its roots under `parent`.
  void Merge(const SpanRecorder& other, int parent);

  Clock::time_point epoch() const { return epoch_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, SpanTotals> Totals() const;
  dmasim::Json ToJson() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int run_id,
             int parent)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, run_id, parent)
                                   : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
