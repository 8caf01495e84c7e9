// DMA transfer descriptor.
//
// A DMA transfer moves `total_bytes` between a device on one I/O bus and
// one memory chip, as a sequence of DMA-memory requests of
// `chunk_bytes` each (8 bytes on a 64-bit PCI-X bus; larger chunks can be
// configured to coarsen event granularity without changing energy
// fractions). The transfer is created by the memory controller, paced by
// its `IoBus`, and completed when the last chunk has been served by the
// chip. Descriptors are recycled through a `TransferPool`.
#ifndef DMASIM_IO_DMA_TRANSFER_H_
#define DMASIM_IO_DMA_TRANSFER_H_

#include <cstdint>

#include "sim/inline_function.h"
#include "util/time.h"

namespace dmasim {

// Origin of a transfer, for statistics and trace bookkeeping.
enum class DmaKind : int { kNetwork = 0, kDisk };

struct DmaTransfer {
  std::uint64_t id = 0;
  int bus_id = 0;
  int chip_index = 0;
  std::uint64_t physical_page = 0;
  DmaKind kind = DmaKind::kNetwork;

  std::int64_t total_bytes = 0;
  std::int64_t chunk_bytes = 8;
  std::int64_t issued_bytes = 0;
  std::int64_t completed_bytes = 0;

  // True while the first DMA-memory request is buffered by DMA-TA and the
  // DMA engine is therefore not issuing further requests.
  bool blocked = false;
  // Whether DMA-TA ever gated this transfer (`gated_at` is reset on
  // release, but the lifecycle trace event needs the history).
  bool obs_was_gated = false;

  Tick start_time = 0;
  Tick gated_at = -1;  // Time the first request was gated, or -1.

  // Invoked once, when the final chunk completes.
  SmallFunction<void(Tick)> on_complete;

  // --- Chunk-run coalescing (owned by MemoryController) ------------------
  // While `run_active`, the controller serves a run of this transfer's
  // chunks in one deferred "run" event; `run_next_issue` is the issue time
  // of the first not-yet-replayed chunk and `run_chunks_left` the number
  // of chunks the run still covers (a run absorbs only the chunks that
  // finish before the next pending event). `run_generation` invalidates a
  // pending run-end event when the run is settled early — it survives
  // pool recycling so a stale event can never match a slot's new occupant.
  bool run_active = false;
  Tick run_next_issue = 0;
  std::int64_t run_chunks_left = 0;
  std::uint64_t run_generation = 0;

  // Stable index of this descriptor's slot in its TransferPool (slab
  // number, then position in the slab). Assigned once by the pool and
  // preserved by Reset; the access monitor observes the transfers started
  // within one sampling interval in this order.
  std::uint32_t pool_slot = 0;

  // True while the descriptor is checked out of its TransferPool
  // (maintained by the pool, not Reset); guards against double release.
  bool pool_active = false;

  // True once an occupancy probe has attributed this transfer to its
  // region. Observation is edge-triggered — a transfer counts once, at
  // the first probe after its start, if it is still in flight — because
  // in-flight residency is dominated by bus queueing, and re-counting a
  // queued transfer at every probe would weight pages by congestion
  // rather than access frequency. The controller queues a started
  // transfer for the next probe and drops it from that queue if it
  // completes first, so a probe touches only transfers not yet seen.
  bool monitor_seen = false;

  std::int64_t RemainingToIssue() const { return total_bytes - issued_bytes; }
  bool Complete() const { return completed_bytes >= total_bytes; }
  bool FirstChunk() const { return issued_bytes == 0; }

  // Re-initializes a recycled descriptor (everything except
  // `run_generation`, `pool_slot` and `pool_active`; see above).
  void Reset() {
    id = 0;
    bus_id = 0;
    chip_index = 0;
    physical_page = 0;
    kind = DmaKind::kNetwork;
    total_bytes = 0;
    chunk_bytes = 8;
    issued_bytes = 0;
    completed_bytes = 0;
    blocked = false;
    start_time = 0;
    gated_at = -1;
    obs_was_gated = false;
    on_complete = {};
    run_active = false;
    run_next_issue = 0;
    run_chunks_left = 0;
    monitor_seen = false;
  }
};

}  // namespace dmasim

#endif  // DMASIM_IO_DMA_TRANSFER_H_
