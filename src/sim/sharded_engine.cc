#include "sim/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <thread>

#include "exp/thread_pool.h"
#include "util/random.h"

namespace dmasim {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void FnvMixU64(std::uint64_t* hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (8 * byte)) & 0xffu;
    *hash *= kFnvPrime;
  }
}

}  // namespace

const char* EngineFaultName(EngineFault fault) {
  switch (fault) {
    case EngineFault::kNone:
      return "none";
    case EngineFault::kSkipBarrierSort:
      return "skip-barrier-sort";
    case EngineFault::kDeliverEarly:
      return "deliver-early";
  }
  return "unknown";
}

bool ParseEngineFault(std::string_view text, EngineFault* out) {
  for (EngineFault fault : {EngineFault::kNone, EngineFault::kSkipBarrierSort,
                            EngineFault::kDeliverEarly}) {
    if (text == EngineFaultName(fault)) {
      *out = fault;
      return true;
    }
  }
  return false;
}

ShardedEngine::ShardedEngine(const Options& options) : options_(options) {
  DMASIM_EXPECTS(options.lookahead >= 0);
  std::uint64_t seed_state = options.sched_fuzz_seed;
  fuzz_state_ = SplitMix64(seed_state);
}

int ShardedEngine::AddShard(Simulator* simulator, MessageHandler handler) {
  DMASIM_EXPECTS(simulator != nullptr);
  DMASIM_EXPECTS(handler);
  DMASIM_EXPECTS(!running_);
  shards_.emplace_back(simulator, handler, options_.mailbox_capacity);
  return static_cast<int>(shards_.size()) - 1;
}

void ShardedEngine::Send(int src, int dst, Tick deliver_at,
                         std::uint32_t kind, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
  DMASIM_EXPECTS(src >= 0 && src < shard_count());
  DMASIM_EXPECTS(dst >= 0 && dst < shard_count());
  DMASIM_EXPECTS(src != dst);
  // The conservative-synchronization invariant: nothing may be addressed
  // into a window any shard could already have executed past. During a
  // window `current_horizon_` is the horizon; violating this would be a
  // missing-latency bug in the caller, so it is a hard check.
  DMASIM_CHECK_GE(deliver_at, current_horizon_);
  if (options_.fault == EngineFault::kDeliverEarly && src == 0 &&
      running_ && !fault_fired_ && current_horizon_ > 0) {
    // Seeded violation: address shard 0's first send one tick inside the
    // horizon — into time other shards have already executed. Bypasses
    // the check above the way a missing-latency caller bug would.
    fault_fired_ = true;
    deliver_at = current_horizon_ - 1;
  }
  Shard& shard = shards_[static_cast<std::size_t>(src)];
  ShardMessage message;
  message.deliver_at = deliver_at;
  message.send_seq = shard.next_send_seq++;
  message.a = a;
  message.b = b;
  message.c = c;
  message.src = static_cast<std::uint32_t>(src);
  message.dst = static_cast<std::uint32_t>(dst);
  message.kind = kind;
  shard.outbox.Push(message);
}

void ShardedEngine::RefreshMailboxStats() {
  stats_.mailbox_spills = 0;
  stats_.max_mailbox_occupancy = 0;
  for (const Shard& shard : shards_) {
    stats_.mailbox_spills += shard.outbox.stats().spilled;
    stats_.max_mailbox_occupancy = std::max(
        stats_.max_mailbox_occupancy, shard.outbox.stats().max_occupancy);
  }
}

void ShardedEngine::DeliverMail(std::uint64_t window, Tick horizon) {
  const int n = shard_count();
  drain_order_.resize(static_cast<std::size_t>(n));
  std::iota(drain_order_.begin(), drain_order_.end(), 0);
  if (options_.sched_fuzz_seed != 0) FuzzPermute(&drain_order_);
  if (options_.hooks != nullptr) {
    options_.hooks->OnBarrier(window, &drain_order_);
  }

  pending_.clear();
  for (int index : drain_order_) {
    Shard& shard = shards_[static_cast<std::size_t>(index)];
    const std::size_t before = pending_.size();
    shard.outbox.Drain(&pending_);
    if (options_.hooks != nullptr) {
      for (std::size_t i = before; i < pending_.size(); ++i) {
        options_.hooks->OnDrained(pending_[i]);
      }
    }
  }
  // Keep the aggregate mailbox counters live at every barrier (the obs
  // layer snapshots them per window, not just at Run() exit).
  RefreshMailboxStats();

  if (!pending_.empty()) {
    // (deliver_at, src, send_seq) is a total order — send_seq is unique
    // per source — so plain sort is deterministic.
    if (options_.fault != EngineFault::kSkipBarrierSort) {
      std::sort(pending_.begin(), pending_.end(),
                [](const ShardMessage& x, const ShardMessage& y) {
                  if (x.deliver_at != y.deliver_at) {
                    return x.deliver_at < y.deliver_at;
                  }
                  if (x.src != y.src) return x.src < y.src;
                  return x.send_seq < y.send_seq;
                });
    }
    for (const ShardMessage& message : pending_) {
      if (options_.hooks != nullptr) options_.hooks->OnDeliver(message);
      if (options_.record_deliveries) deliveries_.push_back(message);
      ++stats_.delivered_messages;
      shards_[message.dst].handler(message);
    }
  }

  if (options_.record_window_digests) {
    prev_window_events_.resize(static_cast<std::size_t>(n), 0);
    std::uint64_t digest = kFnvOffset;
    FnvMixU64(&digest, static_cast<std::uint64_t>(horizon));
    for (int s = 0; s < n; ++s) {
      const std::uint64_t events =
          shards_[static_cast<std::size_t>(s)].window_events;
      FnvMixU64(&digest, events - prev_window_events_[static_cast<std::size_t>(s)]);
      prev_window_events_[static_cast<std::size_t>(s)] = events;
    }
    for (const ShardMessage& message : pending_) {
      FnvMixU64(&digest, static_cast<std::uint64_t>(message.deliver_at));
      FnvMixU64(&digest, message.send_seq);
      FnvMixU64(&digest, message.a);
      FnvMixU64(&digest, message.b);
      FnvMixU64(&digest, message.c);
      FnvMixU64(&digest, (static_cast<std::uint64_t>(message.src) << 32) |
                             message.dst);
      FnvMixU64(&digest, message.kind);
    }
    window_digests_.push_back(digest);
  }
}

void ShardedEngine::Run(Tick until, ThreadPool* pool) {
  DMASIM_EXPECTS(shard_count() > 0);
  DMASIM_EXPECTS(until < std::numeric_limits<Tick>::max());
  const int n = shard_count();
  if (n > 1) DMASIM_EXPECTS(options_.lookahead > 0);
  running_ = true;

  while (true) {
    Tick min_next = Simulator::kNoPendingEvent;
    for (const Shard& shard : shards_) {
      min_next = std::min(min_next, shard.simulator->NextPendingTick());
    }
    if (min_next == Simulator::kNoPendingEvent || min_next > until) break;

    // Horizon: one lookahead past the global minimum, clipped to the run
    // bound (events at exactly `until` still execute: bound + 1).
    Tick horizon = until + 1;
    if (n > 1) {
      const Tick max_tick = std::numeric_limits<Tick>::max();
      const Tick reach = max_tick - options_.lookahead;
      const Tick by_lookahead =
          min_next <= reach ? min_next + options_.lookahead : max_tick;
      horizon = std::min(horizon, by_lookahead);
    }
    current_horizon_ = horizon;
    const std::uint64_t window = stats_.windows;
    if (options_.hooks != nullptr) {
      options_.hooks->OnWindowStart(window, horizon);
    }

    drain_order_.resize(static_cast<std::size_t>(n));
    std::iota(drain_order_.begin(), drain_order_.end(), 0);
    // Perturbed submit/execution order: share-nothing windows make the
    // order immaterial, which is exactly what this checks.
    if (options_.sched_fuzz_seed != 0) FuzzPermute(&drain_order_);
    if (pool != nullptr && n > 1) {
      for (int index : drain_order_) {
        Shard* task_shard = &shards_[static_cast<std::size_t>(index)];
        pool->Submit([this, task_shard, horizon, window, index]() {
          RunWindow(task_shard, horizon, window, index);
        });
      }
      pool->Wait();
    } else {
      for (int index : drain_order_) {
        RunWindow(&shards_[static_cast<std::size_t>(index)], horizon, window,
                  index);
      }
    }
    ++stats_.windows;
    DeliverMail(window, horizon);
  }

  RefreshMailboxStats();
  running_ = false;
}

void ShardedEngine::FuzzBackoff(std::uint64_t window, int index) {
  std::uint64_t state = options_.sched_fuzz_seed ^
                        (window * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(index) *
                         0xbf58476d1ce4e5b9ULL);
  const std::uint64_t draw = SplitMix64(state);
  if ((draw & 3u) == 0) std::this_thread::yield();
  volatile std::uint32_t sink = 0;
  for (std::uint32_t i = 0, end = static_cast<std::uint32_t>(draw % 997);
       i < end; ++i) {
    sink = sink + i;
  }
}

void ShardedEngine::FuzzPermute(std::vector<int>* order) {
  for (std::size_t i = order->size(); i > 1; --i) {
    const std::uint64_t draw = SplitMix64(fuzz_state_);
    const std::size_t j = static_cast<std::size_t>(draw % i);
    std::swap((*order)[i - 1], (*order)[j]);
  }
}

}  // namespace dmasim
