// Sharded, size-bounded LRU caches for the measurement serving layer.
//
// Two cache families share the mechanics:
//   * EstimateCache — per-body volume estimates, keyed by canonical body
//     key × ε tier (convex::CombineKeyWithParams). Plugged into the FPRAS
//     pipeline as volume::BodyEstimateCache, it lets overlapping Karp–Luby
//     unions and repeated candidates skip a body's sampling entirely.
//   * ShardedLruCache<Value> — the generic engine, reused by the service's
//     request-level result memo (service/measure_service.h).
//
// Why a cache hit cannot change a result: every cached value is a pure
// function of its key (body estimates draw from convex::RngForKey streams;
// request results are pure functions of the request signature), so a hit
// returns bit-exactly what recomputation would produce. The cache is a work
// saver, never a source of nondeterminism — evicting everything mid-stream
// only costs resampling.
//
// Concurrency: shard-per-mutex with keys routed by their high fingerprint
// bits; counters are atomics, so stats() is cheap and wait-free. Safe for
// concurrent Lookup/Insert from any number of threads.

#ifndef MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_
#define MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/convex/canonical.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"
#include "src/volume/union_volume.h"

namespace mudb::service {

/// Operation counters of one cache. Monotonic between Clear() calls —
/// Clear() resets every counter together with the entries, so post-clear
/// hit-rate reporting starts from zero instead of mixing epochs (a mixed
/// snapshot could claim a hit rate no post-clear workload produced).
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Current entry count (not monotonic).
  int64_t entries = 0;
  /// Hit ratio in [0, 1]; 0 when no lookups happened yet.
  double HitRate() const {
    int64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
};

/// Generic sharded LRU map from canonical keys to small values. Capacity is
/// global (split evenly across shards, at least one entry each); the
/// least-recently-used entry of a full shard is evicted on insert.
///
/// Storage is flat: a shard's entries live in one vector of slots linked
/// into a recency list by slot index, and are found through an
/// open-addressing table of slot indices. An entry costs its key, its value
/// and about 16 bytes, with no heap node of its own: a long-lived service's
/// footprint grows with its caches' fill, so this is what it pays per
/// cached result.
template <typename Value>
class ShardedLruCache {
 public:
  /// `capacity` = max entries across all shards; `shards` is rounded up to
  /// a power of two so key bits route without division. Shards hold a
  /// mutex, so the vector is built at full size once and never reallocated.
  explicit ShardedLruCache(size_t capacity, int shards = 8)
      : shards_(RoundUpPow2(shards)) {
    size_t per_shard = capacity / shards_.size();
    per_shard_capacity_ = per_shard > 0 ? per_shard : 1;
  }

  /// Also publishes this cache's hit/miss/insertion/eviction counts into
  /// the global MetricsRegistry under `<prefix>.hit`, `<prefix>.miss`,
  /// `<prefix>.insertion`, `<prefix>.eviction` (satellite of the struct
  /// counters, which stay authoritative). Call once, before traffic.
  void PublishMetrics(const std::string& prefix) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    metric_hits_ = reg.counter(prefix + ".hit");
    metric_misses_ = reg.counter(prefix + ".miss");
    metric_insertions_ = reg.counter(prefix + ".insertion");
    metric_evictions_ = reg.counter(prefix + ".eviction");
  }

  std::optional<Value> Lookup(const convex::CanonicalBodyKey& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t slot = shard.Find(key);
    if (slot == kNone) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (metric_misses_ != nullptr) metric_misses_->Inc();
      return std::nullopt;
    }
    shard.MoveToFront(slot);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (metric_hits_ != nullptr) metric_hits_->Inc();
    return shard.slots[slot].value;
  }

  void Insert(const convex::CanonicalBodyKey& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    uint32_t slot = shard.Find(key);
    if (slot != kNone) {
      shard.slots[slot].value = std::move(value);
      shard.MoveToFront(slot);
      return;
    }
    if (shard.slots.size() >= per_shard_capacity_) {
      // Reuse the least recently used slot for the new entry.
      slot = shard.tail;
      shard.EraseFromTable(shard.slots[slot].key);
      shard.slots[slot].key = key;
      shard.slots[slot].value = std::move(value);
      shard.AddToTable(slot);
      shard.MoveToFront(slot);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (metric_evictions_ != nullptr) metric_evictions_->Inc();
      entries_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      slot = static_cast<uint32_t>(shard.slots.size());
      shard.slots.push_back(Slot{key, std::move(value), kNone, kNone});
      shard.AddToTable(slot);
      shard.PushFront(slot);
    }
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (metric_insertions_ != nullptr) metric_insertions_->Inc();
    entries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Empties every shard and resets all counters as one event. Every shard
  /// lock is held across both, so concurrent Lookup/Insert traffic lands
  /// entirely before or entirely after the reset — the previous per-shard
  /// sweep let a racing epoch mix stale hit/miss totals with a zeroed entry
  /// count, which made derived post-clear rates incoherent (negative deltas,
  /// ratios above 1). Only Clear takes more than one shard lock, so the
  /// ascending acquisition order cannot deadlock.
  void Clear() {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (Shard& shard : shards_) locks.emplace_back(shard.mu);
    for (Shard& shard : shards_) shard.Reset();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    insertions_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    entries_.store(0, std::memory_order_relaxed);
  }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.entries = entries_.load(std::memory_order_relaxed);
    return s;
  }

  size_t capacity() const { return per_shard_capacity_ * shards_.size(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// One entry; prev/next link the recency list by slot index.
  struct Slot {
    convex::CanonicalBodyKey key;
    Value value;
    uint32_t prev;
    uint32_t next;
  };

  /// Every slot holds a live entry: a full shard reuses its LRU slot, so
  /// slots are only ever appended (up to the capacity) or all dropped.
  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots;
    /// Linear-probing table of slot indices (kNone = empty), a power of two
    /// at least twice the slot count, so probes stay short.
    std::vector<uint32_t> table;
    uint32_t head = kNone;  // most recently used
    uint32_t tail = kNone;  // least recently used

    size_t Home(const convex::CanonicalBodyKey& key) const {
      return convex::CanonicalBodyKey::Hash{}(key) & (table.size() - 1);
    }

    /// The table position holding `key`, or the empty one ending its probe.
    size_t Probe(const convex::CanonicalBodyKey& key) const {
      const size_t mask = table.size() - 1;
      size_t pos = Home(key);
      while (table[pos] != kNone && slots[table[pos]].key != key) {
        pos = (pos + 1) & mask;
      }
      return pos;
    }

    uint32_t Find(const convex::CanonicalBodyKey& key) const {
      return table.empty() ? kNone : table[Probe(key)];
    }

    /// Indexes slot `slot`, whose key is not in the table yet.
    void AddToTable(uint32_t slot) {
      if (2 * slots.size() > table.size()) {
        // Grow and re-index every slot (the new one included).
        table.assign(std::max<size_t>(16, 2 * table.size()), kNone);
        for (uint32_t s = 0; s < slots.size(); ++s) {
          table[Probe(slots[s].key)] = s;
        }
        return;
      }
      table[Probe(slots[slot].key)] = slot;
    }

    /// Removes `key` (present) from the table by backward-shift deletion:
    /// later entries of its probe run move up into the hole, so no
    /// tombstones are needed.
    void EraseFromTable(const convex::CanonicalBodyKey& key) {
      const size_t mask = table.size() - 1;
      size_t hole = Probe(key);
      for (size_t pos = (hole + 1) & mask; table[pos] != kNone;
           pos = (pos + 1) & mask) {
        // The entry at pos may fill the hole if the hole lies between its
        // home position and pos (cyclically).
        const size_t home = Home(slots[table[pos]].key);
        if (((pos - home) & mask) >= ((pos - hole) & mask)) {
          table[hole] = table[pos];
          hole = pos;
        }
      }
      table[hole] = kNone;
    }

    void PushFront(uint32_t slot) {
      slots[slot].prev = kNone;
      slots[slot].next = head;
      if (head != kNone) slots[head].prev = slot;
      head = slot;
      if (tail == kNone) tail = slot;
    }

    void MoveToFront(uint32_t slot) {
      if (slot == head) return;
      Slot& s = slots[slot];
      slots[s.prev].next = s.next;  // not the head, so prev exists
      if (s.next != kNone) {
        slots[s.next].prev = s.prev;
      } else {
        tail = s.prev;
      }
      PushFront(slot);
    }

    /// Drops every entry and releases the storage.
    void Reset() {
      std::vector<Slot>().swap(slots);
      std::vector<uint32_t>().swap(table);
      head = tail = kNone;
    }
  };

  static size_t RoundUpPow2(int shards) {
    size_t rounded = 1;
    while (rounded < static_cast<size_t>(shards > 1 ? shards : 1)) {
      rounded *= 2;
    }
    return rounded;
  }

  Shard& ShardFor(const convex::CanonicalBodyKey& key) {
    // High bits: the low bits already feed the in-shard table.
    return shards_[(key.fp.hi >> 32) & (shards_.size() - 1)];
  }

  std::vector<Shard> shards_;
  size_t per_shard_capacity_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> entries_{0};
  // Registry mirrors (null until PublishMetrics; registry-owned, never
  // dangle). The struct counters above stay the source of truth.
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_insertions_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
};

/// The per-body estimate cache the FPRAS pipeline plugs into
/// (MeasureOptions::body_cache / FprasOptions::body_cache). Tracks the
/// hit-and-run steps that cache hits saved, on top of the LRU counters.
class EstimateCache : public volume::BodyEstimateCache {
 public:
  struct Options {
    /// Max entries across all shards. An entry is ~56 bytes (slot plus
    /// table share), so the default bounds the cache around a quarter
    /// megabyte.
    size_t capacity = 4096;
    /// Rounded up to a power of two.
    int shards = 8;
  };

  EstimateCache();  // default Options
  explicit EstimateCache(const Options& options);

  std::optional<volume::CachedBodyEstimate> Lookup(
      const convex::CanonicalBodyKey& key) override;
  void Insert(const convex::CanonicalBodyKey& key,
              const volume::CachedBodyEstimate& estimate) override;

  /// Empties the cache and resets stats() AND steps_saved() to zero (the
  /// counters describe one epoch; see ShardedLruCache::Clear).
  void Clear();
  CacheStats stats() const { return cache_.stats(); }
  /// Total hit-and-run steps that Lookup hits avoided recomputing.
  int64_t steps_saved() const {
    return steps_saved_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return cache_.capacity(); }

 private:
  ShardedLruCache<volume::CachedBodyEstimate> cache_;
  std::atomic<int64_t> steps_saved_{0};
  obs::Counter* metric_steps_saved_ = nullptr;  // registry-owned
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_ESTIMATE_CACHE_H_
