// Tests for service/estimate_cache.h: LRU semantics, size bounds, counters,
// and concurrent access of the sharded cache the serving layer shares
// across requests.

#include <algorithm>
#include <cstdint>
#include <list>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/estimate_cache.h"
#include "src/util/rng.h"

namespace mudb::service {
namespace {

convex::CanonicalBodyKey Key(uint64_t hi, uint64_t lo) {
  return convex::CanonicalBodyKey{util::Fingerprint128{hi, lo}};
}

volume::CachedBodyEstimate Estimate(double volume, int64_t steps) {
  return volume::CachedBodyEstimate{volume, steps, /*phases=*/3};
}

TEST(EstimateCacheTest, LookupAfterInsertRoundTrips) {
  EstimateCache cache;
  EXPECT_FALSE(cache.Lookup(Key(1, 2)).has_value());
  cache.Insert(Key(1, 2), Estimate(0.5, 1000));
  auto hit = cache.Lookup(Key(1, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->volume, 0.5);
  EXPECT_EQ(hit->steps, 1000);
  EXPECT_EQ(hit->phases, 3);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  EXPECT_EQ(cache.steps_saved(), 1000);
}

TEST(EstimateCacheTest, CapacityBoundEvictsLeastRecentlyUsed) {
  EstimateCache::Options options;
  options.capacity = 4;
  options.shards = 1;  // single shard: eviction order is globally observable
  EstimateCache cache(options);
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Insert(Key(10, i), Estimate(static_cast<double>(i), 1));
  }
  // Touch key 0 so key 1 becomes the LRU entry.
  EXPECT_TRUE(cache.Lookup(Key(10, 0)).has_value());
  cache.Insert(Key(10, 99), Estimate(99.0, 1));

  EXPECT_TRUE(cache.Lookup(Key(10, 0)).has_value());
  EXPECT_FALSE(cache.Lookup(Key(10, 1)).has_value());  // evicted
  EXPECT_TRUE(cache.Lookup(Key(10, 2)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(10, 3)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(10, 99)).has_value());

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 4);
}

TEST(EstimateCacheTest, ReinsertUpdatesInPlace) {
  EstimateCache::Options options;
  options.capacity = 4;
  options.shards = 1;
  EstimateCache cache(options);
  cache.Insert(Key(1, 1), Estimate(1.0, 10));
  cache.Insert(Key(1, 1), Estimate(2.0, 20));
  auto hit = cache.Lookup(Key(1, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->volume, 2.0);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(EstimateCacheTest, ClearEmptiesEveryShard) {
  EstimateCache cache;
  for (uint64_t i = 0; i < 64; ++i) {
    // Spread across shards via the high bits the router uses.
    cache.Insert(Key(i << 32, i), Estimate(1.0, 1));
  }
  EXPECT_EQ(cache.stats().entries, 64);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_FALSE(cache.Lookup(Key(0, 0)).has_value());
}

TEST(EstimateCacheTest, ClearResetsEveryCounterCoherently) {
  // Clear() starts a fresh stats epoch: hit/miss/insertion/eviction totals
  // and steps_saved reset together with the entries. Mixing pre-clear
  // counters with a zeroed entry count produced incoherent post-clear
  // reporting (hit rates no post-clear workload could have generated).
  EstimateCache::Options options;
  options.capacity = 4;
  options.shards = 2;
  EstimateCache cache(options);
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(Key(i << 32, i), Estimate(1.0, 50));
    cache.Lookup(Key(i << 32, i));
    cache.Lookup(Key(i << 32, ~i));  // miss
  }
  CacheStats before = cache.stats();
  EXPECT_GT(before.hits + before.misses, 0);
  EXPECT_GT(before.insertions, 0);
  EXPECT_GT(cache.steps_saved(), 0);

  cache.Clear();
  CacheStats after = cache.stats();
  EXPECT_EQ(after.hits, 0);
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.insertions, 0);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.entries, 0);
  EXPECT_DOUBLE_EQ(after.HitRate(), 0.0);
  EXPECT_EQ(cache.steps_saved(), 0);

  // The next epoch counts from zero.
  cache.Insert(Key(1, 1), Estimate(2.0, 10));
  EXPECT_TRUE(cache.Lookup(Key(1, 1)).has_value());
  CacheStats epoch = cache.stats();
  EXPECT_EQ(epoch.hits, 1);
  EXPECT_EQ(epoch.misses, 0);
  EXPECT_EQ(epoch.insertions, 1);
  EXPECT_EQ(epoch.entries, 1);
  EXPECT_EQ(cache.steps_saved(), 10);
}

TEST(EstimateCacheTest, ConcurrentClearVersusGetKeepsStatsCoherent) {
  // Clear holds every shard lock across purge + counter reset, so a racing
  // Lookup/Insert epoch lands entirely before or after it. Under the race
  // the observable invariants are: HitRate stays in [0, 1], no counter goes
  // negative, and entries never exceeds capacity.
  EstimateCache::Options options;
  options.capacity = 128;
  options.shards = 4;
  EstimateCache cache(options);
  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerWorker; ++i) {
        uint64_t id = static_cast<uint64_t>((t * kOpsPerWorker + i) % 64);
        convex::CanonicalBodyKey key = Key(id << 32, id);
        if (!cache.Lookup(key).has_value()) {
          cache.Insert(key, Estimate(static_cast<double>(id), 5));
        }
      }
    });
  }
  threads.emplace_back([&cache] {
    for (int round = 0; round < 50; ++round) {
      cache.Clear();
      CacheStats snapshot = cache.stats();
      EXPECT_GE(snapshot.hits, 0);
      EXPECT_GE(snapshot.misses, 0);
      EXPECT_GE(snapshot.insertions, 0);
      EXPECT_GE(snapshot.evictions, 0);
      EXPECT_GE(snapshot.entries, 0);
      double rate = snapshot.HitRate();
      EXPECT_GE(rate, 0.0);
      EXPECT_LE(rate, 1.0);
      EXPECT_GE(cache.steps_saved(), 0);
    }
  });
  for (std::thread& thread : threads) thread.join();
  CacheStats final_stats = cache.stats();
  EXPECT_GE(final_stats.entries, 0);
  EXPECT_LE(final_stats.entries, 128);
  EXPECT_GE(final_stats.hits, 0);
  EXPECT_GE(final_stats.misses, 0);
}

TEST(EstimateCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  EstimateCache::Options options;
  options.capacity = 64;
  options.shards = 5;
  EstimateCache cache(options);
  // 5 → 8 shards, 64 / 8 = 8 per shard.
  EXPECT_EQ(cache.capacity(), 64u);
}

TEST(EstimateCacheTest, GenericCacheStoresArbitraryValues) {
  ShardedLruCache<std::vector<int>> cache(8, 2);
  cache.Insert(Key(5, 5), {1, 2, 3});
  auto hit = cache.Lookup(Key(5, 5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(cache.num_shards(), 2);
}

TEST(EstimateCacheTest, MatchesReferenceLruUnderRandomTraffic) {
  // The flat slot table against a plain list-based LRU, over random inserts
  // and lookups. Half the keys share one home position in the probe table
  // (low hash bits all zero), so evictions exercise the backward-shift
  // deletion inside long probe runs.
  constexpr size_t kCapacity = 37;
  ShardedLruCache<int64_t> cache(kCapacity, 1);
  std::list<std::pair<convex::CanonicalBodyKey, int64_t>> reference;
  std::vector<convex::CanonicalBodyKey> keys;
  util::Rng rng(2026);
  for (uint64_t i = 1; i <= 40; ++i) keys.push_back(Key(i << 20, 0));
  for (uint64_t i = 0; i < 40; ++i) {
    keys.push_back(Key(rng.engine()(), rng.engine()()));
  }
  int64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  for (int op = 0; op < 20000; ++op) {
    const convex::CanonicalBodyKey& key =
        keys[static_cast<size_t>(rng.Uniform(0, 1) * keys.size())];
    auto it = std::find_if(reference.begin(), reference.end(),
                           [&](const auto& e) { return e.first == key; });
    if (rng.Uniform(0, 1) < 0.5) {
      const int64_t value = op;
      if (it != reference.end()) {
        reference.erase(it);
      } else {
        ++insertions;
        if (reference.size() == kCapacity) {
          reference.pop_back();
          ++evictions;
        }
      }
      reference.emplace_front(key, value);
      cache.Insert(key, value);
    } else {
      std::optional<int64_t> got = cache.Lookup(key);
      ASSERT_EQ(got.has_value(), it != reference.end()) << "op " << op;
      if (got) {
        EXPECT_EQ(*got, it->second) << "op " << op;
        reference.splice(reference.begin(), reference, it);
        ++hits;
      } else {
        ++misses;
      }
    }
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.insertions, insertions);
  EXPECT_EQ(stats.evictions, evictions);
  EXPECT_EQ(stats.entries, static_cast<int64_t>(reference.size()));
  for (const auto& [key, value] : reference) {
    std::optional<int64_t> got = cache.Lookup(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }
}

TEST(EstimateCacheTest, ConcurrentLookupInsertIsSafe) {
  // Hammer one cache from several threads; TSan (CI) checks the locking,
  // this test checks nothing is lost or double-counted in the totals.
  EstimateCache::Options options;
  options.capacity = 256;
  options.shards = 4;
  EstimateCache cache(options);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Working set smaller than the capacity: revisits must hit.
        uint64_t id = static_cast<uint64_t>((t * kOpsPerThread + i) % 128);
        convex::CanonicalBodyKey key = Key(id << 32, id);
        if (!cache.Lookup(key).has_value()) {
          cache.Insert(key, Estimate(static_cast<double>(id), 1));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_LE(stats.entries, 256);
  EXPECT_GT(stats.hits, 0);
}

}  // namespace
}  // namespace mudb::service
