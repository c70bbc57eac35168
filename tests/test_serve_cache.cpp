// Sharded response LRU cache: serial LRU semantics, sharding, counters,
// and concurrent hammering (also the TSan target), plus concurrent
// load_day() calls and history walks on one ArchiveReader exercising its
// shared-lock segment cache.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "store/archive.hpp"
#include "store/query.hpp"

namespace laces::serve {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> key_of(const std::string& text) {
  return {text.begin(), text.end()};
}

std::shared_ptr<const std::vector<std::uint8_t>> value_of(
    const std::string& text) {
  return std::make_shared<const std::vector<std::uint8_t>>(text.begin(),
                                                           text.end());
}

TEST(ServeCache, HitMissAndCounters) {
  ResponseCache cache(1, 4);
  EXPECT_EQ(cache.lookup(key_of("a")), nullptr);
  cache.insert(key_of("a"), value_of("A"));
  const auto hit = cache.lookup(key_of("a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, *value_of("A"));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsedPerShard) {
  ResponseCache cache(1, 2);
  cache.insert(key_of("a"), value_of("A"));
  cache.insert(key_of("b"), value_of("B"));
  ASSERT_NE(cache.lookup(key_of("a")), nullptr);  // "b" is now LRU
  cache.insert(key_of("c"), value_of("C"));       // evicts "b"
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(key_of("b")), nullptr);
  EXPECT_NE(cache.lookup(key_of("a")), nullptr);
  EXPECT_NE(cache.lookup(key_of("c")), nullptr);
}

TEST(ServeCache, ReinsertKeepsFirstValueAndRefreshesRecency) {
  // Two workers computing the same response race to insert; the loser's
  // value is dropped but the entry is refreshed, never duplicated.
  ResponseCache cache(1, 2);
  cache.insert(key_of("a"), value_of("first"));
  cache.insert(key_of("b"), value_of("B"));
  cache.insert(key_of("a"), value_of("second"));
  cache.insert(key_of("c"), value_of("C"));  // evicts "b", not "a"
  EXPECT_EQ(cache.size(), 2u);
  const auto a = cache.lookup(key_of("a"));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, *value_of("first"));
  EXPECT_EQ(cache.lookup(key_of("b")), nullptr);
}

TEST(ServeCache, ShardsAreIndependentCapacities) {
  ResponseCache cache(8, 1);
  EXPECT_EQ(cache.shard_count(), 8u);
  // Insert many distinct keys: total capacity is shards * entries, and no
  // shard exceeds its own bound.
  for (int i = 0; i < 64; ++i) {
    cache.insert(key_of("key-" + std::to_string(i)), value_of("v"));
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GE(cache.evictions(), 64u - 8u);
}

TEST(ServeCache, ConcurrentMixedWorkloadKeepsExactCounters) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  ResponseCache cache(4, 32);
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      std::uint64_t local_hits = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto key = key_of("k" + std::to_string((t * 7 + i) % 48));
        if (auto v = cache.lookup(key)) {
          ++local_hits;
          EXPECT_FALSE(v->empty());
        } else {
          cache.insert(key, value_of("value"));
        }
      }
      observed_hits.fetch_add(local_hits);
    });
  }
  for (auto& thread : threads) thread.join();
  // Every lookup is either a hit or a miss, and no increment is lost.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(cache.hits(), observed_hits.load());
  EXPECT_LE(cache.size(), 4u * 32u);
}

// --- concurrent ArchiveReader (the layer below the response cache) ---

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("laces_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

census::DailyCensus make_day(std::uint32_t day) {
  census::DailyCensus census;
  census.day = day;
  for (std::uint32_t i = 0; i < 4; ++i) {
    census::PrefixRecord rec;
    rec.prefix = net::Ipv4Prefix(
        net::Ipv4Address(10, static_cast<std::uint8_t>(day),
                         static_cast<std::uint8_t>(i), 0),
        24);
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 3};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

TEST(ServeCache, ConcurrentArchiveReaderLoadsAreConsistent) {
  const auto dir = fresh_dir("serve_reader_concurrent");
  constexpr std::uint32_t kDays = 6;
  {
    store::ArchiveWriter writer(dir);
    for (std::uint32_t day = 1; day <= kDays; ++day) {
      writer.append(make_day(day));
    }
  }
  // The walkers' prefixes (one per day, and one never published) and their
  // single-thread answers.
  std::vector<net::Prefix> prefixes;
  for (std::uint32_t day = 1; day <= kDays + 1; ++day) {
    prefixes.push_back(net::Ipv4Prefix(
        net::Ipv4Address(10, static_cast<std::uint8_t>(day),
                         static_cast<std::uint8_t>(day % 4), 0),
        24));
  }
  std::vector<std::vector<store::HistoryDay>> reference;
  {
    store::ArchiveReader whole(dir, /*cache_capacity=*/kDays);
    store::QueryEngine engine(whole);
    for (const auto& prefix : prefixes) {
      reference.push_back(engine.history(prefix));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kLoadsPerThread = 200;
  constexpr int kWalksPerThread = 50;
  // Two inputs: every thread calls load_day; then half of them walk every
  // day with QueryEngine::history while the rest call load_day.
  for (const int walkers : {0, kThreads / 2}) {
    SCOPED_TRACE(std::to_string(walkers) + " walkers");
    // Cache smaller than the working set so hits, misses and evictions all
    // happen while 8 threads pull overlapping days.
    store::ArchiveReader reader(dir, /*cache_capacity=*/3);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        if (t < walkers) {
          store::QueryEngine engine(reader);
          for (int i = 0; i < kWalksPerThread; ++i) {
            const std::size_t k = (t + i) % prefixes.size();
            EXPECT_EQ(engine.history(prefixes[k]), reference[k]);
          }
          return;
        }
        for (int i = 0; i < kLoadsPerThread; ++i) {
          const std::uint32_t day = 1 + (t + i) % kDays;
          const auto census = reader.load_day(day);
          ASSERT_NE(census, nullptr);
          EXPECT_EQ(census->day, day);
          EXPECT_EQ(census->records.size(), 4u);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    // Accounting is exact even under contention: every load, and every
    // day a walk visits, is counted exactly once as a hit or a miss.
    const std::uint64_t loads =
        static_cast<std::uint64_t>(kThreads - walkers) * kLoadsPerThread;
    const std::uint64_t walks =
        static_cast<std::uint64_t>(walkers) * kWalksPerThread;
    EXPECT_EQ(reader.cache_hits() + reader.cache_misses(),
              loads + walks * kDays);
    EXPECT_GE(reader.cache_misses(), kDays);
  }
}

}  // namespace
}  // namespace laces::serve
