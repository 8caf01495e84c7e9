#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

int SpanRecorder::Begin(const std::string& name, int run_id, int parent) {
  Span span;
  span.name = name;
  span.run_id = run_id;
  span.parent = parent;
  span.start_s = SecondsBetween(epoch_, Clock::now());
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = SecondsBetween(epoch_, Clock::now());
  span.busy_s = span.end_s - span.start_s;
}

void SpanRecorder::AddAggregate(const std::string& name, int run_id,
                                int parent, std::uint64_t calls,
                                double busy_s) {
  Span span;
  span.name = name;
  span.run_id = run_id;
  span.parent = parent;
  if (parent >= 0) {
    span.start_s = spans_[static_cast<std::size_t>(parent)].start_s;
    span.end_s = spans_[static_cast<std::size_t>(parent)].end_s;
  }
  span.aggregate = true;
  span.calls = calls;
  span.busy_s = busy_s;
  spans_.push_back(span);
}

void SpanRecorder::Merge(const SpanRecorder& other, int parent) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    span.parent = span.parent < 0 ? parent : span.parent + offset;
    spans_.push_back(span);
  }
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  // Time covered by each span's children: the union of its plain
  // children's intervals (parallel children overlap) plus the summed
  // time of its aggregate children.
  std::vector<std::vector<std::pair<double, double>>> intervals(
      spans_.size());
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(span.parent);
    if (span.aggregate) {
      covered[parent] += span.busy_s;
    } else {
      intervals[parent].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<double, double>>& list = intervals[i];
    std::sort(list.begin(), list.end());
    double reach = -1.0;
    for (const auto& [start, end] : list) {
      const double from = std::max(start, reach);
      if (end > from) covered[i] += end - from;
      reach = std::max(reach, end);
    }
    SpanTotals& entry = totals[spans_[i].name];
    entry.busy_s += spans_[i].busy_s;
    entry.self_s += std::max(0.0, spans_[i].busy_s - covered[i]);
    entry.calls += spans_[i].calls;
  }
  return totals;
}

dmasim::Json SpanRecorder::ToJson() const {
  dmasim::Json list = dmasim::Json::Array();
  for (const Span& span : spans_) {
    dmasim::Json entry = dmasim::Json::Object();
    entry.Set("name", span.name);
    entry.Set("run", span.run_id);
    entry.Set("parent", span.parent);
    entry.Set("start_s", span.start_s);
    entry.Set("end_s", span.end_s);
    entry.Set("aggregate", span.aggregate);
    entry.Set("calls", span.calls);
    entry.Set("busy_s", span.busy_s);
    list.Append(std::move(entry));
  }
  dmasim::Json totals = dmasim::Json::Object();
  for (const auto& [name, total] : Totals()) {
    dmasim::Json entry = dmasim::Json::Object();
    entry.Set("busy_s", total.busy_s);
    entry.Set("self_s", total.self_s);
    entry.Set("calls", total.calls);
    totals.Set(name, std::move(entry));
  }
  dmasim::Json json = dmasim::Json::Object();
  json.Set("totals", std::move(totals));
  json.Set("spans", std::move(list));
  return json;
}

}  // namespace perfbench
