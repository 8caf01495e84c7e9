#include "host_probe.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <thread>
#include <utility>

#include "spans.h"

namespace perfbench {
namespace {

constexpr std::size_t kWordsPerKiB = 1024 / sizeof(std::uint64_t);
constexpr std::size_t kPending = 4096;    // Events in the heap.
constexpr std::size_t kEvents = 160000;   // Events executed per probe.
constexpr int kRepeats = 3;

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// Pops the earliest event, updates the slot of the first `words` of the
// table it picks and schedules a successor, kEvents times.
std::uint64_t EventLoop(std::vector<std::uint64_t>* table, std::size_t words) {
  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, key)
  std::vector<Event> storage;
  storage.reserve(kPending + 1);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap(
      std::greater<Event>{}, std::move(storage));
  std::uint64_t key = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < kPending; ++i) {
    key = Mix(key + i);
    heap.emplace(key & 1023, key);
  }
  const std::size_t mask = words - 1;
  for (std::size_t i = 0; i < kEvents; ++i) {
    const Event event = heap.top();
    heap.pop();
    key = Mix(event.second ^ i);
    std::uint64_t& slot = (*table)[key & mask];
    slot = slot * 31 + event.first;
    heap.emplace(event.first + 1 + (slot & 1023), key);
  }
  return heap.top().second;
}

}  // namespace

HostProbe HostProbe::ForSimulation(int workers) {
  return HostProbe(workers, {16384 * kWordsPerKiB, 65536 * kWordsPerKiB},
                   0.045);
}

HostProbe HostProbe::ForSetup() {
  return HostProbe(1, {256 * kWordsPerKiB}, 0.0175);
}

HostProbe::HostProbe(int copies, std::vector<std::size_t> footprints,
                     double nominal_s)
    : footprints_(std::move(footprints)),
      nominal_s_(nominal_s),
      tables_(static_cast<std::size_t>(std::max(1, copies))) {
  const std::size_t words =
      *std::max_element(footprints_.begin(), footprints_.end());
  for (std::vector<std::uint64_t>& table : tables_) table.assign(words, 1);
}

double HostProbe::TimeOnce() {
  const auto probe = [this](std::vector<std::uint64_t>* table) {
    std::uint64_t result = 0;
    for (std::size_t words : footprints_) result += EventLoop(table, words);
    return result;
  };
  const Clock::time_point start = Clock::now();
  if (tables_.size() == 1) {
    sink_ += probe(&tables_[0]);
  } else {
    std::vector<std::uint64_t> results(tables_.size(), 0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      workers.emplace_back([&, t] { results[t] = probe(&tables_[t]); });
    }
    for (std::thread& worker : workers) worker.join();
    for (std::uint64_t r : results) sink_ += r;
  }
  return SecondsBetween(start, Clock::now());
}

double HostProbe::Sample() {
  double sum = 0.0;
  for (int i = 0; i < kRepeats; ++i) {
    timings_.push_back(TimeOnce());
    sum += timings_.back();
  }
  samples_.push_back(sum / kRepeats);
  return samples_.back();
}

double HostProbe::median_s() const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n == 0) return nominal_s_;
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double HostProbe::ResidentBytes() const {
  return static_cast<double>(tables_.size() * tables_[0].size() *
                             sizeof(std::uint64_t));
}

}  // namespace perfbench
