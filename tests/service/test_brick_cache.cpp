// BrickCache unit tests: LRU eviction order, byte-budget enforcement,
// hit/miss accounting, per-GPU sharding and cross-volume isolation.

#include "service/brick_cache.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "util/check.hpp"
#include "volren/raycast.hpp"

namespace vrmr::service {
namespace {

TEST(BrickCache, MissThenHit) {
  BrickCache cache(1, 1000);
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 0}, 100));  // cold: admitted
  EXPECT_TRUE(cache.lookup_or_admit(0, {1, 0}, 100));   // warm
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().bytes_saved, 100u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  EXPECT_EQ(cache.resident_bytes(0), 100u);
  EXPECT_EQ(cache.resident_bricks(0), 1u);
}

TEST(BrickCache, EvictsLeastRecentlyUsed) {
  BrickCache cache(1, 100);
  cache.lookup_or_admit(0, {1, 0}, 40);
  cache.lookup_or_admit(0, {1, 1}, 40);
  // Touch brick 0 so brick 1 becomes the LRU victim.
  EXPECT_TRUE(cache.lookup_or_admit(0, {1, 0}, 40));
  cache.lookup_or_admit(0, {1, 2}, 40);  // needs an eviction
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_FALSE(cache.resident(0, {1, 1}));
  EXPECT_TRUE(cache.resident(0, {1, 2}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_evicted, 40u);
}

TEST(BrickCache, NeverExceedsCapacity) {
  BrickCache cache(1, 100);
  for (int b = 0; b < 20; ++b) {
    cache.lookup_or_admit(0, {1, b}, 30);
    EXPECT_LE(cache.resident_bytes(0), 100u);
  }
  EXPECT_EQ(cache.resident_bricks(0), 3u);  // 3 x 30 <= 100 < 4 x 30
}

TEST(BrickCache, OversizedBrickIsRejectedWithoutEvicting) {
  BrickCache cache(1, 100);
  cache.lookup_or_admit(0, {1, 0}, 60);
  EXPECT_FALSE(cache.lookup_or_admit(0, {1, 99}, 200));  // larger than budget
  EXPECT_FALSE(cache.resident(0, {1, 99}));
  EXPECT_TRUE(cache.resident(0, {1, 0}));  // nothing was displaced
  EXPECT_EQ(cache.stats().rejected_oversized, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(BrickCache, GpuShardsAreIndependent) {
  BrickCache cache(2, 100);
  cache.lookup_or_admit(0, {1, 0}, 50);
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_FALSE(cache.resident(1, {1, 0}));
  EXPECT_EQ(cache.resident_bytes(1), 0u);
  // The same brick admitted on the other GPU is a miss there.
  EXPECT_FALSE(cache.lookup_or_admit(1, {1, 0}, 50));
}

TEST(BrickCache, VolumesDoNotAliasOnBrickId) {
  // Two sessions rendering different volumes produce the same brick
  // ids; the volume id keeps their residency isolated.
  BrickCache cache(1, 1000);
  cache.lookup_or_admit(0, {/*volume_id=*/1, 0}, 100);
  EXPECT_FALSE(cache.resident(0, {2, 0}));
  EXPECT_FALSE(cache.lookup_or_admit(0, {2, 0}, 100));  // distinct entry
  EXPECT_TRUE(cache.resident(0, {1, 0}));
  EXPECT_TRUE(cache.resident(0, {2, 0}));
  EXPECT_EQ(cache.resident_bricks(0), 2u);
}

TEST(BrickCache, InvalidateVolumeDropsAllItsBricksEverywhere) {
  BrickCache cache(2, 1000);
  cache.lookup_or_admit(0, {1, 0}, 100);
  cache.lookup_or_admit(0, {2, 0}, 100);
  cache.lookup_or_admit(1, {1, 1}, 100);
  cache.invalidate_volume(1);
  EXPECT_FALSE(cache.resident(0, {1, 0}));
  EXPECT_FALSE(cache.resident(1, {1, 1}));
  EXPECT_TRUE(cache.resident(0, {2, 0}));
  EXPECT_EQ(cache.resident_bytes(0), 100u);
  EXPECT_EQ(cache.resident_bytes(1), 0u);
}

TEST(BrickCache, ClearEmptiesEveryShard) {
  BrickCache cache(2, 1000);
  cache.lookup_or_admit(0, {1, 0}, 100);
  cache.lookup_or_admit(1, {1, 1}, 100);
  cache.clear();
  EXPECT_EQ(cache.resident_bytes(0), 0u);
  EXPECT_EQ(cache.resident_bytes(1), 0u);
  EXPECT_FALSE(cache.resident(0, {1, 0}));
}

TEST(BrickCache, CapacityForLeavesReserve) {
  gpusim::DeviceProps props;
  props.vram_bytes = 4ull << 30;
  EXPECT_EQ(BrickCache::capacity_for(props, 1ull << 30), 3ull << 30);
  // Reserve swallowing the whole device leaves a zero-budget cache.
  EXPECT_EQ(BrickCache::capacity_for(props, 8ull << 30), 0u);
}

/// Fill a resident entry's host payload slot; returns a watch on it.
std::weak_ptr<const volren::BrickPayload> attach_payload(BrickCache& cache, int gpu,
                                                         const BrickKey& key) {
  std::shared_ptr<const volren::BrickPayload>* slot = cache.host_payload(gpu, key);
  EXPECT_NE(slot, nullptr);
  if (slot == nullptr) return {};
  EXPECT_EQ(*slot, nullptr);  // empty until first mapped
  auto payload = std::make_shared<const volren::BrickPayload>();
  *slot = payload;
  return payload;
}

TEST(BrickCache, HostPayloadLivesAsLongAsItsEntry) {
  for (const CachePolicy policy : {CachePolicy::Lru, CachePolicy::Arc}) {
    SCOPED_TRACE(to_string(policy));
    BrickCache cache(1, 100, policy);
    EXPECT_EQ(cache.host_payload(0, {1, 0}), nullptr);  // not resident
    cache.lookup_or_admit(0, {1, 0}, 60);
    const auto watch = attach_payload(cache, 0, {1, 0});
    // A hit keeps the payload (Arc promotes the entry to T2).
    EXPECT_TRUE(cache.lookup_or_admit(0, {1, 0}, 60));
    EXPECT_EQ(*cache.host_payload(0, {1, 0}), watch.lock());
    // Admitting a second brick evicts the first: its payload goes, and
    // the ghost Arc keeps holds no slot.
    cache.lookup_or_admit(0, {1, 1}, 60);
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(cache.host_payload(0, {1, 0}), nullptr);
    // Readmitted, it starts empty again.
    cache.lookup_or_admit(0, {1, 0}, 60);
    ASSERT_NE(cache.host_payload(0, {1, 0}), nullptr);
    EXPECT_EQ(*cache.host_payload(0, {1, 0}), nullptr);
  }
}

TEST(BrickCache, InvalidateAndClearDropHostPayloads) {
  BrickCache cache(2, 1000);
  cache.lookup_or_admit(0, {1, 0}, 100);
  cache.lookup_or_admit(1, {2, 0}, 100);
  const auto invalidated = attach_payload(cache, 0, {1, 0});
  const auto cleared = attach_payload(cache, 1, {2, 0});
  cache.invalidate_volume(1);
  EXPECT_TRUE(invalidated.expired());
  EXPECT_FALSE(cleared.expired());
  cache.clear();
  EXPECT_TRUE(cleared.expired());
}

TEST(BrickCache, RejectsBadGpuIndex) {
  BrickCache cache(1, 100);
  EXPECT_THROW(cache.lookup_or_admit(1, {1, 0}, 10), vrmr::CheckError);
  EXPECT_THROW((void)cache.resident(-1, {1, 0}), vrmr::CheckError);
}

}  // namespace
}  // namespace vrmr::service
