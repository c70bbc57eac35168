// Sharded, thread-safe response LRU cache.
//
// Keys are the canonical request bytes (serve/protocol.hpp), values the
// encoded response bodies, so a cache hit is a pure byte copy — no query
// re-execution, no re-encoding. The key's FNV-1a hash picks a shard; each
// shard is an independently locked exact LRU, so concurrent lookups of
// different requests contend only 1/shards of the time. Hit, miss, insert
// and eviction counts are exported through laces_obs
// (laces_serve_response_cache_*_total).
//
// Each shard also carries a separately bounded *negative* LRU for typed
// misses (e.g. the kUnknownDay error body for an absent day): repeated
// lookups of something the archive does not have were previously a miss
// every time, re-executing the query just to rediscover the absence. The
// arena is separate so an attacker enumerating absent days can evict at
// most negative entries, never real responses. clear() drops both arenas
// when an archive day commits and absences change.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace laces::serve {

class ResponseCache {
 public:
  /// `shards` independent LRUs of `entries_per_shard` each, plus a
  /// negative arena of `negative_entries_per_shard` per shard. A zero for
  /// shards or entries is bumped to one; zero negative entries disables
  /// the negative arena.
  ResponseCache(std::size_t shards, std::size_t entries_per_shard,
                std::size_t negative_entries_per_shard = 0);

  /// The cached response body, or nullptr on a miss. Checks the positive
  /// arena first, then the negative one (a cached typed miss is still an
  /// answer — the caller cannot tell and does not need to).
  std::shared_ptr<const std::vector<std::uint8_t>> lookup(
      std::span<const std::uint8_t> key);

  /// Inserts (or refreshes) the response body for `key`, evicting the
  /// shard's least-recently-used entry when the shard is full.
  void insert(std::span<const std::uint8_t> key,
              std::shared_ptr<const std::vector<std::uint8_t>> value);

  /// Inserts a typed-miss body (e.g. an encoded kUnknownDay error) into
  /// the shard's negative arena. No-op when the arena is disabled.
  void insert_negative(std::span<const std::uint8_t> key,
                       std::shared_ptr<const std::vector<std::uint8_t>> value);

  /// Drops everything, both arenas (mesh relays on a feed day roll), and
  /// on glibc returns the process's free heap pages to the OS.
  void clear();

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t negative_hits() const {
    return negative_hits_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;
  std::size_t negative_size() const;
  std::size_t shard_count() const { return shards_.size(); }

 private:
  using Key = std::string;  // canonical request bytes
  using Lru =
      std::list<std::pair<Key, std::shared_ptr<const std::vector<std::uint8_t>>>>;
  struct Shard {
    std::mutex mutex;
    /// Most-recent at front; evict from the back.
    Lru lru;
    std::unordered_map<std::string_view, Lru::iterator> by_key;
    /// Negative arena: same shape, independent bound.
    Lru neg_lru;
    std::unordered_map<std::string_view, Lru::iterator> neg_by_key;
  };

  Shard& shard_for(std::span<const std::uint8_t> key);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t entries_per_shard_;
  std::size_t negative_entries_per_shard_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> negative_hits_{0};
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* inserts_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* negative_hits_counter_ = nullptr;
  obs::Counter* negative_inserts_counter_ = nullptr;
};

}  // namespace laces::serve
