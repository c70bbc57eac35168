#include "serve/cache.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace laces::serve {
namespace {

/// FNV-1a over the key bytes — cheap, deterministic shard selection.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string_view view_of(const std::string& s) { return s; }

}  // namespace

ResponseCache::ResponseCache(std::size_t shards, std::size_t entries_per_shard,
                             std::size_t negative_entries_per_shard)
    : entries_per_shard_(entries_per_shard == 0 ? 1 : entries_per_shard),
      negative_entries_per_shard_(negative_entries_per_shard) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& reg = obs::Registry::global();
  hits_counter_ = &reg.counter("laces_serve_response_cache_hits_total");
  misses_counter_ = &reg.counter("laces_serve_response_cache_misses_total");
  inserts_counter_ = &reg.counter("laces_serve_response_cache_inserts_total");
  evictions_counter_ =
      &reg.counter("laces_serve_response_cache_evictions_total");
  negative_hits_counter_ =
      &reg.counter("laces_serve_response_cache_negative_hits_total");
  negative_inserts_counter_ =
      &reg.counter("laces_serve_response_cache_negative_inserts_total");
}

ResponseCache::Shard& ResponseCache::shard_for(
    std::span<const std::uint8_t> key) {
  return *shards_[fnv1a(key) % shards_.size()];
}

std::shared_ptr<const std::vector<std::uint8_t>> ResponseCache::lookup(
    std::span<const std::uint8_t> key) {
  Shard& shard = shard_for(key);
  const std::string_view wanted(reinterpret_cast<const char*>(key.data()),
                                key.size());
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.by_key.find(wanted); it != shard.by_key.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits_counter_->add(1);
    return it->second->second;
  }
  if (const auto it = shard.neg_by_key.find(wanted);
      it != shard.neg_by_key.end()) {
    shard.neg_lru.splice(shard.neg_lru.begin(), shard.neg_lru, it->second);
    negative_hits_.fetch_add(1, std::memory_order_relaxed);
    negative_hits_counter_->add(1);
    return it->second->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  misses_counter_->add(1);
  return nullptr;
}

void ResponseCache::insert(
    std::span<const std::uint8_t> key,
    std::shared_ptr<const std::vector<std::uint8_t>> value) {
  Shard& shard = shard_for(key);
  const std::string_view wanted(reinterpret_cast<const char*>(key.data()),
                                key.size());
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.by_key.find(wanted); it != shard.by_key.end()) {
    // Concurrent computation of the same response: refresh recency, keep
    // the existing value (bodies are canonical, so they are identical).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(Key(wanted), std::move(value));
  shard.by_key.emplace(view_of(shard.lru.front().first), shard.lru.begin());
  inserts_counter_->add(1);
  if (shard.lru.size() > entries_per_shard_) {
    shard.by_key.erase(view_of(shard.lru.back().first));
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions_counter_->add(1);
  }
}

void ResponseCache::insert_negative(
    std::span<const std::uint8_t> key,
    std::shared_ptr<const std::vector<std::uint8_t>> value) {
  if (negative_entries_per_shard_ == 0) return;
  Shard& shard = shard_for(key);
  const std::string_view wanted(reinterpret_cast<const char*>(key.data()),
                                key.size());
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.neg_by_key.find(wanted);
      it != shard.neg_by_key.end()) {
    shard.neg_lru.splice(shard.neg_lru.begin(), shard.neg_lru, it->second);
    return;
  }
  shard.neg_lru.emplace_front(Key(wanted), std::move(value));
  shard.neg_by_key.emplace(view_of(shard.neg_lru.front().first),
                           shard.neg_lru.begin());
  negative_inserts_counter_->add(1);
  if (shard.neg_lru.size() > negative_entries_per_shard_) {
    shard.neg_by_key.erase(view_of(shard.neg_lru.back().first));
    shard.neg_lru.pop_back();
  }
}

void ResponseCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->by_key.clear();
    shard->lru.clear();
    shard->neg_by_key.clear();
    shard->neg_lru.clear();
  }
#if defined(__GLIBC__)
  // A clear drops every cached answer at once (a day roll), and an
  // ExportDay answer is ~0.5 MB. glibc keeps freed memory in its arenas
  // for reuse; give the free pages back, so the resident set after a day
  // roll is what the process still holds, not its high-water mark.
  malloc_trim(0);
#endif
}

std::size_t ResponseCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    n += shard->lru.size();
  }
  return n;
}

std::size_t ResponseCache::negative_size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    n += shard->neg_lru.size();
  }
  return n;
}

}  // namespace laces::serve
