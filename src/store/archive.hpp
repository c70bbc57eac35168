// ArchiveWriter / ArchiveReader: the durable longitudinal census archive.
//
// The writer appends one columnar segment per census day, keeps the
// MANIFEST index consistent (atomic rewrite per append) and persists the
// resume checkpoint. The reader lazily loads days through a small LRU
// segment cache, verifies every segment's SHA-256 footer once and then
// compares the manifest digest with that verified footer, and bridges to
// the §4.2.4 CSV publication format in both directions. Walks over every
// archived day (for_each_day) visit the cached days first, so a walk
// never evicts a day it has yet to visit: a serial walk over D days
// through a C-day cache misses D - C times, not D. Everything is
// instrumented with laces_obs (bytes, compression ratio inputs, cache
// hits/misses, spans).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "census/longitudinal.hpp"
#include "obs/metrics.hpp"
#include "store/checkpoint.hpp"
#include "store/delta.hpp"
#include "store/manifest.hpp"
#include "store/segment.hpp"

namespace laces::store {

class ArchiveWriter {
 public:
  /// Opens (or creates) the archive at `dir`. An existing manifest is
  /// loaded so a reopened archive appends after its last day.
  explicit ArchiveWriter(std::filesystem::path dir);

  /// Archives one census day: encodes the segment, renders the day's
  /// publication rows once (store::render_rows; they give the entry's
  /// record_count and csv_bytes), writes the segment atomically, appends
  /// the manifest entry and rewrites the manifest. Throws ArchiveError if
  /// `census.day` is already archived or not after the last archived day.
  const ManifestEntry& append(const census::DailyCensus& census);

  /// Persists the resume checkpoint (atomic overwrite).
  void write_checkpoint(const Checkpoint& checkpoint);

  /// Called at the end of every successful append(), after the segment and
  /// manifest are durable — the day-commit hook the mesh pub/sub publisher
  /// hangs off (src/mesh/). It receives the day's publication rows, as
  /// render_rows returns them, to keep. Runs on the appending thread;
  /// exceptions propagate to the append() caller.
  using CommitHook =
      std::function<void(const ManifestEntry&, const census::DailyCensus&,
                          std::vector<DeltaRow> rows)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  const Manifest& manifest() const { return manifest_; }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  Manifest manifest_;
  CommitHook commit_hook_;
  obs::Counter* segments_written_ = nullptr;
  obs::Counter* segment_bytes_ = nullptr;
  obs::Counter* csv_bytes_ = nullptr;
  obs::Counter* checkpoints_written_ = nullptr;
};

/// Thread-safety: after construction an ArchiveReader is safe for
/// concurrent load_day / for_each_day / export_csv / manifest() calls from
/// any number of threads (laces_serve workers hammer one reader). The
/// decoded-segment cache takes a shared lock on the hit path — a relaxed
/// recency tick is the only write — and an exclusive lock only to insert
/// after a miss; segment decode always happens outside any lock, so a slow
/// decode never blocks concurrent hits. Each missing day is decoded once:
/// threads that miss a day another thread is decoding wait for that
/// decode. replay_longitudinal() and verify() are safe but sequential;
/// checkpoint accessors touch only the filesystem.
class ArchiveReader {
 public:
  /// Opens the archive at `dir` (the manifest must exist).
  /// `cache_capacity` bounds the LRU segment cache (decoded days).
  explicit ArchiveReader(std::filesystem::path dir,
                         std::size_t cache_capacity = 8);

  const Manifest& manifest() const { return manifest_; }
  const std::filesystem::path& dir() const { return dir_; }

  /// Loads one day through the LRU cache. The segment footer AND the
  /// manifest digest are both checked; a corrupted segment throws
  /// ArchiveError and is never returned. Throws on unknown days. A call
  /// that misses a day another thread is decoding counts as a miss and
  /// returns that decode's result (or rethrows its error).
  std::shared_ptr<const census::DailyCensus> load_day(std::uint32_t day);

  /// Visits every archived day exactly once, as visit(index, census) with
  /// `index` into manifest().entries. The days whose decoded segment is
  /// cached come first (taken, and counted as hits, under one shared
  /// lock), then the others through load_day in manifest order, so the
  /// walk never evicts a day it has yet to visit. `visit` runs with no
  /// lock held and may itself call load_day. Concurrent walks can still
  /// evict each other's days and then miss a few more.
  using DayVisitor =
      std::function<void(std::size_t index, const census::DailyCensus&)>;
  void for_each_day(const DayVisitor& visit);

  bool has_checkpoint() const;
  Checkpoint load_checkpoint() const;

  /// Reconstructs longitudinal state by replaying every archived day (the
  /// slow reference path; resume uses the checkpoint's counters instead).
  /// Days are added in for_each_day's order: LongitudinalStore::add gives
  /// the same state for any order of the same days.
  census::LongitudinalStore replay_longitudinal();

  /// Writes one archived day in the §4.2.4 CSV publication format.
  void export_csv(std::uint32_t day, std::ostream& out);

  /// Re-reads every segment and checks digests; returns one human-readable
  /// problem per bad day (empty = archive verifies clean).
  std::vector<std::string> verify();

  std::uint64_t cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  /// One cached decoded day. `last_use` is a recency tick from use_clock_:
  /// bumped with a relaxed store under the shared lock on every hit, read
  /// under the exclusive lock when picking the eviction victim — exact LRU
  /// for any serial history, approximate only under racing hits (where
  /// "least recent" is ambiguous anyway).
  struct CachedDay {
    std::shared_ptr<const census::DailyCensus> census;
    std::atomic<std::uint64_t> last_use{0};
  };

  /// Marks `cached` the most recently used day.
  void touch(CachedDay& cached) {
    cached.last_use.store(
        use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }

  /// Reads `entry`'s segment, verifies its footer (the one SHA-256 pass)
  /// and compares the manifest digest with that verified footer.
  std::vector<std::uint8_t> read_segment_bytes(const ManifestEntry& entry);

  std::filesystem::path dir_;
  Manifest manifest_;
  std::size_t cache_capacity_;
  mutable std::shared_mutex cache_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<CachedDay>> cache_;
  /// Days being decoded now (guarded by cache_mutex_), so concurrent
  /// misses of one day share a single decode.
  using Decoded =
      std::shared_future<std::shared_ptr<const census::DailyCensus>>;
  std::unordered_map<std::uint32_t, Decoded> decoding_;
  std::atomic<std::uint64_t> use_clock_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* segments_loaded_ = nullptr;
  obs::Counter* corrupt_segments_ = nullptr;
};

/// CSV import bridge: parses a §4.2.4 publication file (e.g. a prior run's
/// census-day-N.csv) and appends it to the archive. Returns the manifest
/// entry. Note the CSV format does not carry the AT list or probe-cost
/// counters; imported days archive without them.
const ManifestEntry& import_csv(ArchiveWriter& writer, std::istream& in);

}  // namespace laces::store
