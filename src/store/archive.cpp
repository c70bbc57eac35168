#include "store/archive.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "census/output.hpp"
#include "obs/trace.hpp"

namespace laces::store {
namespace {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path,
                                    const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ArchiveError(std::string(what) + ": cannot open " + path.string());
  }
  std::vector<std::uint8_t> bytes;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) {
    throw ArchiveError(std::string(what) + ": cannot stat " + path.string());
  }
  bytes.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    throw ArchiveError(std::string(what) + ": short read on " + path.string());
  }
  return bytes;
}

/// Atomic write: the file either keeps its old content or has all the new
/// bytes — a crash mid-write never leaves a torn file behind.
void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes,
                       const char* what) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ArchiveError(std::string(what) + ": cannot write " + tmp.string());
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      throw ArchiveError(std::string(what) + ": short write on " +
                         tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
}

/// Byte length of render_census(census), counted from the day's rows:
/// the header lines plus every line and its newline.
std::uint64_t publication_bytes(const census::DailyCensus& census,
                                std::span<const DeltaRow> rows) {
  std::string header;
  census::append_header(header, census.day, census.degraded,
                        census.lost_sites, census.canary_alarms);
  std::uint64_t bytes = header.size();
  for (const DeltaRow& row : rows) bytes += row.line.size() + 1;
  return bytes;
}

std::uint32_t count_anycast_detected(const census::DailyCensus& census) {
  std::uint32_t n = 0;
  for (const auto& [prefix, rec] : census.records) {
    if (rec.anycast_based_detected()) ++n;
  }
  return n;
}

}  // namespace

ArchiveWriter::ArchiveWriter(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  const auto manifest_path = dir_ / kManifestFile;
  if (std::filesystem::exists(manifest_path)) {
    manifest_ = Manifest::load(manifest_path);
  }
  auto& reg = obs::Registry::global();
  segments_written_ = &reg.counter("laces_store_segments_written_total");
  segment_bytes_ = &reg.counter("laces_store_segment_bytes_total");
  csv_bytes_ = &reg.counter("laces_store_csv_bytes_total");
  checkpoints_written_ = &reg.counter("laces_store_checkpoints_written_total");
}

const ManifestEntry& ArchiveWriter::append(const census::DailyCensus& census) {
  obs::Span span("store.append");
  span.set_attr("day", std::to_string(census.day));
  if (!manifest_.entries.empty() && census.day <= manifest_.last_day()) {
    throw ArchiveError("append: day " + std::to_string(census.day) +
                       " is not after last archived day " +
                       std::to_string(manifest_.last_day()));
  }

  const auto segment = encode_segment(census);
  std::vector<DeltaRow> rows = render_rows(census);
  ManifestEntry entry;
  entry.day = census.day;
  entry.degraded = census.degraded;
  entry.record_count = static_cast<std::uint32_t>(rows.size());
  entry.anycast_detected = count_anycast_detected(census);
  entry.gcd_confirmed =
      static_cast<std::uint32_t>(census.gcd_confirmed_prefixes().size());
  entry.segment_bytes = segment.size();
  entry.csv_bytes = publication_bytes(census, rows);
  entry.digest_hex = footer_hex(segment);  // encode_segment just hashed it
  entry.file = segment_file_name(census.day);

  write_file_atomic(dir_ / entry.file, segment, "segment");
  manifest_.entries.push_back(std::move(entry));
  manifest_.save(dir_ / kManifestFile);

  const auto& stored = manifest_.entries.back();
  segments_written_->add(1);
  segment_bytes_->add(stored.segment_bytes);
  csv_bytes_->add(stored.csv_bytes);
  span.set_attr("segment_bytes", std::to_string(stored.segment_bytes));
  if (commit_hook_) commit_hook_(stored, census, std::move(rows));
  return stored;
}

// Deliberately span-free: the checkpoint carries the tracer's next span id,
// and a span here would burn an id *after* that cursor was captured —
// resumed runs would then drift one id per archived day from the
// uninterrupted timeline.
void ArchiveWriter::write_checkpoint(const Checkpoint& checkpoint) {
  const auto bytes = encode_checkpoint(checkpoint);
  write_file_atomic(dir_ / kCheckpointFile, bytes, "checkpoint");
  checkpoints_written_->add(1);
}

ArchiveReader::ArchiveReader(std::filesystem::path dir,
                             std::size_t cache_capacity)
    : dir_(std::move(dir)),
      cache_capacity_(cache_capacity == 0 ? 1 : cache_capacity) {
  manifest_ = Manifest::load(dir_ / kManifestFile);
  auto& reg = obs::Registry::global();
  cache_hits_ = &reg.counter("laces_store_cache_hits_total");
  cache_misses_ = &reg.counter("laces_store_cache_misses_total");
  segments_loaded_ = &reg.counter("laces_store_segments_loaded_total");
  corrupt_segments_ = &reg.counter("laces_store_corrupt_segments_total");
}

std::vector<std::uint8_t> ArchiveReader::read_segment_bytes(
    const ManifestEntry& entry) {
  auto bytes = read_file(dir_ / entry.file, "segment");
  std::string digest;
  try {
    digest = segment_digest_hex(bytes);
  } catch (const ArchiveError& e) {
    corrupt_segments_->add(1);
    throw ArchiveError("segment " + entry.file + ": " + e.what());
  }
  if (digest != entry.digest_hex) {
    corrupt_segments_->add(1);
    throw ArchiveError("segment " + entry.file +
                       ": digest does not match manifest (manifest " +
                       entry.digest_hex + ", file " + digest + ")");
  }
  return bytes;
}

std::shared_ptr<const census::DailyCensus> ArchiveReader::load_day(
    std::uint32_t day) {
  {
    std::shared_lock lock(cache_mutex_);
    if (const auto it = cache_.find(day); it != cache_.end()) {
      touch(*it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      cache_hits_->add(1);
      return it->second->census;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  cache_misses_->add(1);

  const ManifestEntry* entry = manifest_.find(day);
  if (entry == nullptr) {
    throw ArchiveError("load_day: day " + std::to_string(day) +
                       " is not in the archive");
  }
  std::promise<std::shared_ptr<const census::DailyCensus>> decoded;
  {
    std::unique_lock lock(cache_mutex_);
    if (const auto it = cache_.find(day); it != cache_.end()) {
      // Inserted since the shared-lock lookup.
      touch(*it->second);
      return it->second->census;
    }
    if (const auto it = decoding_.find(day); it != decoding_.end()) {
      // Another thread is decoding this day: wait for its result rather
      // than decode the same segment a second time.
      const auto pending = it->second;
      lock.unlock();
      return pending.get();
    }
    decoding_.emplace(day, decoded.get_future().share());
  }

  // Read + digest-check + decode happen outside any lock: a slow decode
  // must not block concurrent cache hits on other days.
  std::shared_ptr<const census::DailyCensus> shared;
  try {
    obs::Span span("store.load_day");
    span.set_attr("day", std::to_string(day));
    const auto bytes = read_segment_bytes(*entry);
    census::DailyCensus census;
    try {
      census = decode_verified_segment(bytes);
    } catch (const ArchiveError&) {
      corrupt_segments_->add(1);
      throw;
    }
    if (census.day != day) {
      corrupt_segments_->add(1);
      throw ArchiveError("segment " + entry->file + ": holds day " +
                         std::to_string(census.day) + ", manifest says " +
                         std::to_string(day));
    }
    segments_loaded_->add(1);
    shared = std::make_shared<const census::DailyCensus>(std::move(census));
  } catch (...) {
    {
      std::unique_lock lock(cache_mutex_);
      decoding_.erase(day);
    }
    decoded.set_exception(std::current_exception());
    throw;
  }

  // The evicted day, if this was its last reference, is freed after the
  // lock is released.
  std::unique_ptr<CachedDay> evicted;
  {
    std::unique_lock lock(cache_mutex_);
    decoding_.erase(day);
    auto cached = std::make_unique<CachedDay>();
    cached->census = shared;
    touch(*cached);
    cache_.emplace(day, std::move(cached));
    if (cache_.size() > cache_capacity_) {
      // Evict the smallest recency tick (the least recently used entry).
      auto victim = cache_.begin();
      for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->second->last_use.load(std::memory_order_relaxed) <
            victim->second->last_use.load(std::memory_order_relaxed)) {
          victim = it;
        }
      }
      evicted = std::move(victim->second);
      cache_.erase(victim);
    }
  }
  decoded.set_value(shared);
  return shared;
}

void ArchiveReader::for_each_day(const DayVisitor& visit) {
  const auto& entries = manifest_.entries;
  using Pinned = std::shared_ptr<const census::DailyCensus>;
  std::vector<std::pair<std::size_t, Pinned>> resident;
  std::vector<bool> visited(entries.size(), false);
  {
    std::shared_lock lock(cache_mutex_);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (const auto it = cache_.find(entries[i].day); it != cache_.end()) {
        touch(*it->second);
        resident.emplace_back(i, it->second->census);
        visited[i] = true;
      }
    }
  }
  hits_.fetch_add(resident.size(), std::memory_order_relaxed);
  cache_hits_->add(resident.size());
  // Each pinned day is released right after its visit, so a day another
  // thread evicts meanwhile is not kept alive to the end of the walk.
  for (auto& [i, census] : resident) {
    const auto pinned = std::move(census);
    visit(i, *pinned);
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!visited[i]) visit(i, *load_day(entries[i].day));
  }
}

bool ArchiveReader::has_checkpoint() const {
  return std::filesystem::exists(dir_ / kCheckpointFile);
}

Checkpoint ArchiveReader::load_checkpoint() const {
  const auto bytes = read_file(dir_ / kCheckpointFile, "checkpoint");
  return decode_checkpoint(bytes);
}

census::LongitudinalStore ArchiveReader::replay_longitudinal() {
  obs::Span span("store.replay");
  census::LongitudinalStore store;
  for_each_day([&store](std::size_t, const census::DailyCensus& census) {
    store.add(census);
  });
  span.set_attr("days", std::to_string(manifest_.entries.size()));
  return store;
}

void ArchiveReader::export_csv(std::uint32_t day, std::ostream& out) {
  const auto census = load_day(day);
  census::write_census(out, *census);
}

std::vector<std::string> ArchiveReader::verify() {
  obs::Span span("store.verify");
  std::vector<std::string> problems;
  for (const auto& entry : manifest_.entries) {
    try {
      const auto bytes = read_segment_bytes(entry);
      const auto census = decode_verified_segment(bytes);
      if (census.day != entry.day) {
        throw ArchiveError("segment " + entry.file + ": holds day " +
                           std::to_string(census.day) + ", manifest says " +
                           std::to_string(entry.day));
      }
      if (bytes.size() != entry.segment_bytes) {
        throw ArchiveError("segment " + entry.file + ": " +
                           std::to_string(bytes.size()) +
                           " bytes on disk, manifest says " +
                           std::to_string(entry.segment_bytes));
      }
    } catch (const ArchiveError& e) {
      problems.emplace_back(e.what());
    }
  }
  span.set_attr("problems", std::to_string(problems.size()));
  return problems;
}

const ManifestEntry& import_csv(ArchiveWriter& writer, std::istream& in) {
  census::DailyCensus census = census::parse_census(in);
  return writer.append(census);
}

}  // namespace laces::store
