#ifndef DEEPMVI_COMMON_LRU_CACHE_H_
#define DEEPMVI_COMMON_LRU_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace deepmvi {

/// Bounded, bytes-budgeted LRU cache of immutable values, thread-safe for
/// concurrent readers. The repo's one eviction discipline: the storage
/// chunk cache and the serving response cache are both instances of it.
///
/// Entries are handed out as shared_ptr<const Value>: eviction only drops
/// the cache's reference, so a reader holding a value keeps it alive while
/// the cache stays within budget for everything it retains. Before a new
/// entry is retained, least-recently-used entries are evicted until the
/// new total fits the budget; a value larger than the whole budget is
/// returned to the caller but never retained.
///
/// Get and Insert each take the lock once, so a caller that computes a
/// missing value does so outside it; two threads racing on one missing key
/// may both compute it, and the first insert wins.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  /// `byte_budget` <= 0 disables retention: every Get misses.
  explicit LruCache(int64_t byte_budget) : byte_budget_(byte_budget) {}
  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value cached under `key`, now the most recently used, or null.
  /// Counts a hit or a miss.
  ValuePtr Get(const Key& key) {
    MutexLock lock(&mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.value;
  }

  /// Offers `value`, which holds `bytes`, under `key` and returns the value
  /// callers should use: the one already cached when an earlier insert of
  /// `key` won, else `value` itself (retained unless it exceeds the whole
  /// budget).
  ValuePtr Insert(const Key& key, ValuePtr value, int64_t bytes) {
    MutexLock lock(&mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.value;
    }
    if (bytes > byte_budget_) return value;
    while (!lru_.empty() && stats_.bytes_cached + bytes > byte_budget_) {
      const auto victim = entries_.find(lru_.back());
      stats_.bytes_cached -= victim->second.bytes;
      entries_.erase(victim);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(key);
    entries_.emplace(key, Entry{value, bytes, lru_.begin()});
    stats_.bytes_cached += bytes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_cached);
    return value;
  }

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    /// Entries dropped to fit the budget or by Clear.
    int64_t evictions = 0;
    int64_t bytes_cached = 0;
    /// High-water mark of bytes_cached, for asserting the budget held.
    int64_t peak_bytes = 0;
  };
  Stats stats() const {
    MutexLock lock(&mu_);
    return stats_;
  }
  int64_t byte_budget() const { return byte_budget_; }

  /// Drops every retained entry, counting each as an eviction (outstanding
  /// ValuePtrs stay valid).
  void Clear() {
    MutexLock lock(&mu_);
    stats_.evictions += static_cast<int64_t>(entries_.size());
    entries_.clear();
    lru_.clear();
    stats_.bytes_cached = 0;
  }

 private:
  struct Entry {
    ValuePtr value;
    int64_t bytes = 0;
    typename std::list<Key>::iterator lru_it;
  };

  const int64_t byte_budget_;
  mutable Mutex mu_;
  std::unordered_map<Key, Entry, Hash> entries_ DMVI_GUARDED_BY(mu_);
  std::list<Key> lru_ DMVI_GUARDED_BY(mu_);  // Front = most recent.
  Stats stats_ DMVI_GUARDED_BY(mu_);
};

}  // namespace deepmvi

#endif  // DEEPMVI_COMMON_LRU_CACHE_H_
