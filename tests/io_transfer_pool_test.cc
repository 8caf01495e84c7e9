// Tests for the DMA transfer descriptor slab (io/transfer_pool.h): stable
// slot indices, which order the access monitor's observations.
#include "io/transfer_pool.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace dmasim {
namespace {

TEST(TransferPoolTest, SlotsFollowSlabOrderAndSurviveRecycling) {
  TransferPool pool;
  DmaTransfer* a = pool.Acquire();
  DmaTransfer* b = pool.Acquire();
  EXPECT_EQ(a->pool_slot, 0u);
  EXPECT_EQ(b->pool_slot, 1u);

  a->monitor_seen = true;
  pool.Release(a);
  // The free list is LIFO: the low slot comes back first, reset but with
  // its index intact.
  DmaTransfer* c = pool.Acquire();
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->pool_slot, 0u);
  EXPECT_FALSE(c->monitor_seen);
  EXPECT_TRUE(c->pool_active);
  EXPECT_EQ(pool.ActiveCount(), 2u);
}

TEST(TransferPoolTest, SecondSlabContinuesTheSlotSequence) {
  TransferPool pool;
  std::vector<DmaTransfer*> held;
  for (int i = 0; i < 300; ++i) held.push_back(pool.Acquire());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i]->pool_slot, static_cast<std::uint32_t>(i));
  }
  for (DmaTransfer* transfer : held) pool.Release(transfer);
  EXPECT_EQ(pool.ActiveCount(), 0u);
}

}  // namespace
}  // namespace dmasim
