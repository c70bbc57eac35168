// laces_store archive end-to-end: append/load via the manifest, the LRU
// segment cache (one decode per concurrently missed day) and the
// cached-days-first walk over it, CSV bridging in both directions,
// write-twice determinism, checkpoint round-trips and corruption
// reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "census/output.hpp"
#include "store/archive.hpp"
#include "store/query.hpp"

namespace laces::store {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test scratch directory (removed and recreated each call).
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("laces_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), 24);
}

/// One synthetic census day; every record is published so the archived
/// segment preserves it verbatim. `spread` varies content across days.
census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread = 4) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 1000 + day;
  census.gcd_probes_sent = 100 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    census::PrefixRecord rec;
    rec.prefix = v4(10, static_cast<std::uint8_t>(day),
                    static_cast<std::uint8_t>(i));
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + i};
    if (i % 2 == 0) {
      rec.gcd_verdict = gcd::GcdVerdict::kAnycast;
      rec.gcd_site_count = 2 + i;
      rec.gcd_locations = {i, i + 1};
    }
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(StoreArchive, AppendLoadRoundTrip) {
  const auto dir = fresh_dir("archive_roundtrip");
  ArchiveWriter writer(dir);
  for (std::uint32_t day = 1; day <= 3; ++day) {
    const auto& entry = writer.append(make_day(day));
    EXPECT_EQ(entry.day, day);
    EXPECT_EQ(entry.record_count, 4u);
    EXPECT_EQ(entry.anycast_detected, 4u);
    EXPECT_EQ(entry.gcd_confirmed, 2u);
    EXPECT_GT(entry.segment_bytes, 0u);
    EXPECT_GT(entry.csv_bytes, entry.segment_bytes);  // compresses
    EXPECT_EQ(entry.digest_hex.size(), 64u);
  }
  EXPECT_EQ(writer.manifest().last_day(), 3u);

  ArchiveReader reader(dir);
  ASSERT_EQ(reader.manifest().entries.size(), 3u);
  for (std::uint32_t day = 1; day <= 3; ++day) {
    const auto loaded = reader.load_day(day);
    EXPECT_EQ(*loaded, published_projection(make_day(day)));
  }

  // Reopening the writer continues after the archived tail.
  ArchiveWriter reopened(dir);
  EXPECT_EQ(reopened.manifest().last_day(), 3u);
  reopened.append(make_day(4));
  EXPECT_EQ(ArchiveReader(dir).manifest().last_day(), 4u);
}

TEST(StoreArchive, AppendRejectsNonMonotonicDays) {
  ArchiveWriter writer(fresh_dir("archive_monotonic"));
  writer.append(make_day(5));
  EXPECT_THROW(writer.append(make_day(5)), ArchiveError);  // duplicate
  EXPECT_THROW(writer.append(make_day(3)), ArchiveError);  // backwards
  writer.append(make_day(6));
  EXPECT_EQ(writer.manifest().last_day(), 6u);
}

TEST(StoreArchive, WriteTwiceIsByteIdentical) {
  const auto dir_a = fresh_dir("archive_det_a");
  const auto dir_b = fresh_dir("archive_det_b");
  {
    ArchiveWriter a(dir_a), b(dir_b);
    for (std::uint32_t day = 1; day <= 3; ++day) {
      a.append(make_day(day));
      b.append(make_day(day));
    }
  }
  EXPECT_EQ(slurp(dir_a / kManifestFile), slurp(dir_b / kManifestFile));
  for (std::uint32_t day = 1; day <= 3; ++day) {
    const auto name = segment_file_name(day);
    EXPECT_EQ(slurp(dir_a / name), slurp(dir_b / name)) << name;
  }
}

TEST(StoreArchive, LruCacheEvictsLeastRecentlyUsed) {
  const auto dir = fresh_dir("archive_lru");
  {
    ArchiveWriter writer(dir);
    for (std::uint32_t day = 1; day <= 3; ++day) writer.append(make_day(day));
  }
  ArchiveReader reader(dir, /*cache_capacity=*/2);
  const auto day1_first = reader.load_day(1);  // miss
  reader.load_day(1);                          // hit
  reader.load_day(2);                          // miss
  reader.load_day(3);                          // miss, evicts day 1
  EXPECT_EQ(reader.cache_hits(), 1u);
  EXPECT_EQ(reader.cache_misses(), 3u);
  const auto day1_again = reader.load_day(1);  // miss: was evicted
  EXPECT_EQ(reader.cache_misses(), 4u);
  EXPECT_NE(day1_first.get(), day1_again.get());  // freshly decoded
  EXPECT_EQ(*day1_first, *day1_again);
  reader.load_day(1);  // hit again
  EXPECT_EQ(reader.cache_hits(), 2u);
}

/// Appends days 1..`days` (make_day's records plus 192.0.2.0/24, detected
/// by both methods on every day, and 192.0.3.0/24, anycast-based only, on
/// odd days); day `degraded_day` is degraded (0: none).
void write_shared_days(const fs::path& dir, std::uint32_t days,
                       std::uint32_t degraded_day) {
  ArchiveWriter writer(dir);
  for (std::uint32_t day = 1; day <= days; ++day) {
    census::DailyCensus census = make_day(day);
    census::PrefixRecord every;
    every.prefix = v4(192, 0, 2);
    every.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 3};
    every.gcd_verdict = gcd::GcdVerdict::kAnycast;
    every.gcd_site_count = 2;
    every.gcd_locations = {0, 1};
    census.records.emplace(every.prefix, every);
    if (day % 2 == 1) {
      census::PrefixRecord odd;
      odd.prefix = v4(192, 0, 3);
      odd.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, 4};
      census.records.emplace(odd.prefix, odd);
    }
    census.degraded = day == degraded_day;
    writer.append(census);
  }
}

// A history walk visits the cached days first, so it never evicts a day it
// has yet to visit: over 4 days through a 3-day cache the first walk misses
// 4 times and every later walk exactly once (a walk in manifest order
// misses 4 times every time). The answers equal a 4-day-cache reader's.
TEST(StoreArchive, HistoryWalkVisitsCachedDaysFirst) {
  const auto check = [](const std::string& name, std::uint32_t degraded_day,
                        const std::vector<net::Prefix>& prefixes) {
    SCOPED_TRACE(name);
    const auto dir = fresh_dir(name);
    write_shared_days(dir, 4, degraded_day);
    ArchiveReader whole(dir, /*cache_capacity=*/4);
    ArchiveReader reader(dir, /*cache_capacity=*/3);
    QueryEngine reference(whole);
    QueryEngine engine(reader);
    for (std::size_t walk = 0; walk < 3 * prefixes.size(); ++walk) {
      const net::Prefix& prefix = prefixes[walk % prefixes.size()];
      const auto misses = reader.cache_misses();
      const auto history = engine.history(prefix);
      EXPECT_EQ(reader.cache_misses() - misses, walk == 0 ? 4u : 1u)
          << "walk " << walk << " for " << prefix.to_string();
      EXPECT_EQ(history, reference.history(prefix));
      ASSERT_EQ(history.size(), 4u);
      for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(history[i].day, i + 1);  // day order, whatever the walk's
        EXPECT_EQ(history[i].degraded, i + 1 == degraded_day);
      }
    }
  };
  // Published on days 1 and 3; never published.
  check("archive_walk", 0, {v4(192, 0, 3), v4(172, 16, 0)});
  // On an archive whose day 3 is degraded.
  check("archive_walk_degraded", 3, {v4(192, 0, 2)});
}

// replay_longitudinal adds days in walk order: days 4 and 5 are cached, so
// they come first. LongitudinalStore::add must give the same store as
// adding the days in order (every-day is "count == healthy days", degraded
// days only add to a counter, and snapshot() sorts).
TEST(StoreArchive, ReplayDoesNotDependOnWalkOrder) {
  const auto dir = fresh_dir("archive_replay_order");
  write_shared_days(dir, 5, /*degraded_day=*/2);
  census::LongitudinalStore expected;
  {
    ArchiveReader in_order(dir, /*cache_capacity=*/5);
    for (std::uint32_t day = 1; day <= 5; ++day) {
      expected.add(*in_order.load_day(day));
    }
  }
  ASSERT_EQ(expected.degraded_days(), 1u);
  ASSERT_EQ(expected.anycast_based_stability().every_day, 1u);
  // make_day's 4 own prefixes on each of 4 healthy days, and 192.0.3.0/24.
  ASSERT_EQ(expected.intermittent_anycast_based().size(), 4u * 4u + 1u);

  ArchiveReader reader(dir, /*cache_capacity=*/2);
  reader.load_day(4);
  reader.load_day(5);
  std::vector<std::uint32_t> order;
  reader.for_each_day([&order](std::size_t i, const census::DailyCensus& day) {
    EXPECT_EQ(day.day, i + 1);
    order.push_back(day.day);
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{4, 5, 1, 2, 3}));

  reader.load_day(4);
  reader.load_day(5);
  const auto hits = reader.cache_hits();
  const auto replayed = reader.replay_longitudinal();
  EXPECT_EQ(reader.cache_hits() - hits, 2u);  // days 4 and 5, visited first
  EXPECT_EQ(replayed.snapshot(), expected.snapshot());
  EXPECT_EQ(replayed.anycast_based_stability(),
            expected.anycast_based_stability());
  EXPECT_EQ(replayed.gcd_stability(), expected.gcd_stability());
  EXPECT_EQ(replayed.intermittent_gcd(), expected.intermittent_gcd());
  EXPECT_EQ(replayed.check_invariants(), std::nullopt);
}

/// Starts `threads` threads together, each calling load(t), and joins them.
template <typename Load>
void load_together(int threads, Load load) {
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&start, &load, t] {
      start.arrive_and_wait();
      load(t);
    });
  }
  for (auto& thread : pool) thread.join();
}

// Threads that miss the same day at once share one decode: each call still
// counts one miss or hit, every caller gets the same decoded day, and the
// segment is decoded exactly once (at the parent each racing miss decoded
// it again).
TEST(StoreArchive, ConcurrentMissesOfOneDayDecodeItOnce) {
  const auto dir = fresh_dir("archive_one_decode");
  {
    ArchiveWriter writer(dir);
    writer.append(make_day(1, /*spread=*/250));
  }
  auto& decoded =
      obs::Registry::global().counter("laces_store_segments_loaded_total");
  constexpr int kThreads = 8;
  for (int round = 0; round < 10; ++round) {
    ArchiveReader reader(dir, /*cache_capacity=*/1);
    const auto before = decoded.value();
    std::vector<std::shared_ptr<const census::DailyCensus>> got(kThreads);
    load_together(kThreads, [&](int t) { got[t] = reader.load_day(1); });
    EXPECT_EQ(decoded.value() - before, 1u) << "round " << round;
    EXPECT_EQ(reader.cache_hits() + reader.cache_misses(),
              static_cast<std::uint64_t>(kThreads));
    for (const auto& day : got) {
      ASSERT_NE(day, nullptr);
      EXPECT_EQ(day.get(), got[0].get());
    }
    EXPECT_EQ(got[0]->records.size(), 250u);
  }
}

// A decode that fails fails every caller that waited on it, and is not
// left pending: the next call decodes again and fails again.
TEST(StoreArchive, ConcurrentMissesShareADecodeError) {
  const auto dir = fresh_dir("archive_one_decode_corrupt");
  {
    ArchiveWriter writer(dir);
    writer.append(make_day(1, /*spread=*/250));
  }
  const auto victim = dir / segment_file_name(1);
  auto bytes = slurp(victim);
  ASSERT_GT(bytes.size(), 50u);
  bytes[40] ^= 0x01;
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  ArchiveReader reader(dir, /*cache_capacity=*/1);
  constexpr int kThreads = 8;
  load_together(kThreads, [&reader](int) {
    EXPECT_THROW(reader.load_day(1), ArchiveError);
  });
  EXPECT_THROW(reader.load_day(1), ArchiveError);
  EXPECT_EQ(reader.cache_misses(), static_cast<std::uint64_t>(kThreads) + 1);
}

TEST(StoreArchive, ExportCsvMatchesPublicationRender) {
  const auto dir = fresh_dir("archive_export");
  const auto census = make_day(7);
  ArchiveWriter(dir).append(census);
  ArchiveReader reader(dir);
  std::ostringstream out;
  reader.export_csv(7, out);
  EXPECT_EQ(out.str(), census::render_census(census));
}

TEST(StoreArchive, ImportCsvBridgesPublicationFiles) {
  const auto census = make_day(9);
  const auto csv = census::render_census(census);
  const auto dir = fresh_dir("archive_import");
  ArchiveWriter writer(dir);
  std::istringstream in(csv);
  const auto& entry = import_csv(writer, in);
  EXPECT_EQ(entry.day, 9u);
  EXPECT_EQ(entry.record_count, 4u);

  // The CSV format loses the AT list and probe-cost counters; everything
  // the publication carries must survive the bridge.
  const auto loaded = ArchiveReader(dir).load_day(9);
  auto expected = published_projection(census);
  expected.anycast_targets.clear();
  expected.anycast_probes_sent = 0;
  expected.gcd_probes_sent = 0;
  EXPECT_EQ(*loaded, expected);
}

// csv_bytes is the byte length of the day's §4.2.4 file, whatever shape the
// day has and however it reached the archive; the writer's counter adds
// exactly that many bytes.
TEST(StoreArchive, CsvBytesMatchRenderedPublication) {
  auto& csv_total =
      obs::Registry::global().counter("laces_store_csv_bytes_total");
  ArchiveWriter writer(fresh_dir("archive_csv_bytes"));
  const auto expect_counted = [&](const census::DailyCensus& day,
                                  bool via_import) {
    const std::string csv = census::render_census(day);
    const auto before = csv_total.value();
    std::istringstream in(csv);
    const ManifestEntry& entry =
        via_import ? import_csv(writer, in) : writer.append(day);
    EXPECT_EQ(entry.csv_bytes, csv.size()) << "day " << day.day;
    EXPECT_EQ(csv_total.value() - before, csv.size()) << "day " << day.day;
  };

  expect_counted(make_day(1), false);  // healthy

  auto degraded = make_day(2, /*spread=*/6);
  degraded.degraded = true;
  degraded.lost_sites = 3;
  degraded.canary_alarms = 12;
  ASSERT_NE(census::render_census(degraded).find("# degraded: "),
            std::string::npos);
  expect_counted(degraded, false);

  // Records, but none published: the file is its header lines alone.
  census::DailyCensus unpublished;
  unpublished.day = 3;
  census::PrefixRecord unicast;
  unicast.prefix = v4(10, 3, 0);
  unicast.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kUnicast, 1};
  unpublished.records.emplace(unicast.prefix, unicast);
  ASSERT_TRUE(unpublished.published_prefixes().empty());
  expect_counted(unpublished, false);

  expect_counted(make_day(4, /*spread=*/9), true);  // via import_csv
}

TEST(StoreArchive, CorruptSegmentIsReportedNotLoaded) {
  const auto dir = fresh_dir("archive_corrupt");
  {
    ArchiveWriter writer(dir);
    writer.append(make_day(1));
    writer.append(make_day(2));
  }
  // Flip one byte in the middle of day 2's segment.
  const auto victim = dir / segment_file_name(2);
  auto bytes = slurp(victim);
  ASSERT_GT(bytes.size(), 50u);
  bytes[40] ^= 0x01;
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  ArchiveReader reader(dir);
  EXPECT_NO_THROW(reader.load_day(1));
  try {
    reader.load_day(2);
    FAIL() << "corrupt segment decoded silently";
  } catch (const ArchiveError& e) {
    EXPECT_NE(std::string(e.what()).find(segment_file_name(2)),
              std::string::npos)
        << "error does not name the corrupt file: " << e.what();
  }
  const auto problems = reader.verify();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find(segment_file_name(2)), std::string::npos);
}

// A swapped-in segment that is itself valid (good footer, same day) passes
// the footer check; only the manifest digest comparison catches it.
TEST(StoreArchive, ValidSegmentSwappedInIsCaughtByManifestDigest) {
  const auto dir = fresh_dir("archive_swapped");
  {
    ArchiveWriter writer(dir);
    writer.append(make_day(1));
    writer.append(make_day(2));
  }
  const auto victim = dir / segment_file_name(2);
  const auto swapped = encode_segment(make_day(2, /*spread=*/7));
  ASSERT_NE(swapped, slurp(victim));
  ASSERT_EQ(decode_segment(swapped).day, 2u);
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(swapped.data()),
             static_cast<std::streamsize>(swapped.size()));

  auto& corrupt =
      obs::Registry::global().counter("laces_store_corrupt_segments_total");
  ArchiveReader reader(dir);
  EXPECT_NO_THROW(reader.load_day(1));
  const auto before = corrupt.value();
  try {
    reader.load_day(2);
    FAIL() << "swapped segment loaded silently";
  } catch (const ArchiveError& e) {
    EXPECT_NE(std::string(e.what()).find(segment_file_name(2)),
              std::string::npos)
        << "error does not name the swapped file: " << e.what();
  }
  EXPECT_GT(corrupt.value(), before);

  const auto problems = reader.verify();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find(segment_file_name(2)), std::string::npos)
      << problems[0];
}

TEST(StoreArchive, VerifyDetectsSizeMismatch) {
  const auto dir = fresh_dir("archive_size");
  {
    ArchiveWriter writer(dir);
    writer.append(make_day(1));
  }
  // Truncate the segment: verify must flag it (footer check fires first).
  const auto victim = dir / segment_file_name(1);
  auto bytes = slurp(victim);
  bytes.resize(bytes.size() - 8);
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  EXPECT_EQ(ArchiveReader(dir).verify().size(), 1u);
}

TEST(StoreArchive, ManifestRoundTripsAndNamesBadLines) {
  Manifest manifest;
  for (std::uint32_t day = 1; day <= 3; ++day) {
    ManifestEntry entry;
    entry.day = day;
    entry.degraded = day == 2;
    entry.record_count = 10 * day;
    entry.anycast_detected = 5 * day;
    entry.gcd_confirmed = 2 * day;
    entry.segment_bytes = 1000 + day;
    entry.csv_bytes = 9000 + day;
    entry.digest_hex = std::string(64, 'a');
    entry.file = segment_file_name(day);
    manifest.entries.push_back(entry);
  }
  const auto text = manifest.render();
  const auto parsed = Manifest::parse(text);
  ASSERT_EQ(parsed.entries.size(), 3u);
  EXPECT_EQ(parsed.entries, manifest.entries);
  EXPECT_EQ(parsed.render(), text);  // render is a fixed point

  // A mangled line is rejected with its line number in the message.
  auto broken = text;
  broken += "not a manifest line\n";
  try {
    Manifest::parse(broken);
    FAIL() << "malformed manifest line parsed silently";
  } catch (const ArchiveError& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }

  // Numbers that would wrap, truncate or carry a sign, and a digest that is
  // not hex, are rejected naming their line (line 2, after the header).
  const std::string header = text.substr(0, text.find('\n') + 1);
  const std::string good =
      "day=4 degraded=0 records=1 anycast=1 gcd=0 segment_bytes=10 "
      "csv_bytes=20 file=day-00004.seg sha256=" +
      std::string(64, 'b');
  EXPECT_NO_THROW(Manifest::parse(header + good + "\n"));
  const std::pair<std::string, std::string> bad_values[] = {
      {"day=4", "day=-1"},
      {"day=4", "day=4294967297"},
      {"day=4", "day=+7"},
      {"records=1", "records=-5"},
      {"sha256=" + std::string(64, 'b'), "sha256=" + std::string(64, 'z')},
  };
  for (const auto& [from, to] : bad_values) {
    auto line = good;
    line.replace(line.find(from), from.size(), to);
    try {
      Manifest::parse(header + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const ArchiveError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(StoreArchive, CheckpointRoundTrips) {
  Checkpoint cp;
  cp.last_day = 17;
  cp.sim_time_ns = 123456789012345;
  cp.next_span_id = 991;
  cp.pipeline.next_measurement = 42;
  cp.pipeline.gcd_run_counter = 7;
  cp.pipeline.at_list = {v4(10, 0, 1), v4(10, 0, 2)};
  cp.pipeline.partial = {v4(10, 0, 2)};
  cp.pipeline.canary_days = 3;
  cp.pipeline.canary_share_sums = {{0, 0.25}, {3, 0.5}};
  cp.longitudinal.days = 17;
  cp.longitudinal.degraded_days = 1;
  cp.longitudinal.anycast_total = 170;
  cp.longitudinal.gcd_total = 68;
  cp.longitudinal.anycast_every_day = 9;
  cp.longitudinal.gcd_every_day = 4;
  cp.longitudinal.anycast_counts = {{v4(10, 0, 1), 17}, {v4(10, 0, 2), 3}};
  cp.longitudinal.gcd_counts = {{v4(10, 0, 1), 17}};
  cp.worker_rng = {{1, 2, 3, 4}, {5, 6, 7, 8}};

  const auto bytes = encode_checkpoint(cp);
  EXPECT_EQ(decode_checkpoint(bytes), cp);
  EXPECT_EQ(encode_checkpoint(cp), bytes);  // deterministic

  auto corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x10;
  EXPECT_THROW(decode_checkpoint(corrupt), ArchiveError);
}

TEST(StoreArchive, InflatedCheckpointCountsAreArchiveErrors) {
  // A checkpoint with a valid footer whose list count claims 2^64 - 1
  // entries must fail as ArchiveError before anything is reserved (not
  // std::length_error, which --resume and verify() do not catch). Marker
  // varints locate the counts: at_list follows gcd_run_counter, the canary
  // list follows canary_days, and the two count maps and the worker-RNG
  // list follow gcd_every_day.
  Checkpoint cp;
  cp.pipeline.gcd_run_counter = 0x61;
  cp.pipeline.canary_days = 0x62;
  cp.longitudinal.gcd_every_day = 0x63;
  const auto bytes = encode_checkpoint(cp);
  const auto payload_end = bytes.end() - 32;
  for (const auto& [marker, skip] : {std::pair{0x61, 0}, {0x62, 0},
                                     {0x63, 0}, {0x63, 1}, {0x63, 2}}) {
    const auto count = std::find(bytes.begin(), payload_end, marker) + 1 + skip;
    ASSERT_LT(count, payload_end);
    ASSERT_EQ(*count, 0) << "marker " << marker;  // an empty list
    ByteWriter w;
    w.bytes(std::span(bytes.data(), count - bytes.begin()));
    w.varint(~std::uint64_t{0});
    w.bytes(std::span(&*(count + 1), payload_end - count - 1));
    put_sha256_footer(w);
    EXPECT_THROW(decode_checkpoint(w.view()), ArchiveError)
        << "marker " << marker << " + " << skip;
  }
}

TEST(StoreArchive, CheckpointPersistsThroughWriterAndReader) {
  const auto dir = fresh_dir("archive_checkpoint");
  ArchiveWriter writer(dir);
  writer.append(make_day(1));
  EXPECT_FALSE(ArchiveReader(dir).has_checkpoint());
  Checkpoint cp;
  cp.last_day = 1;
  cp.sim_time_ns = 5000;
  cp.worker_rng = {{9, 8, 7, 6}};
  writer.write_checkpoint(cp);
  ArchiveReader reader(dir);
  ASSERT_TRUE(reader.has_checkpoint());
  EXPECT_EQ(reader.load_checkpoint(), cp);
}

TEST(StoreArchive, QuerySummaryAndHistory) {
  const auto dir = fresh_dir("archive_query");
  {
    ArchiveWriter writer(dir);
    for (std::uint32_t day = 1; day <= 3; ++day) writer.append(make_day(day));
  }
  ArchiveReader reader(dir);
  QueryEngine query(reader);

  const auto summary = query.summary();
  EXPECT_EQ(summary.days, 3u);
  EXPECT_EQ(summary.degraded_days, 0u);
  EXPECT_EQ(summary.first_day, 1u);
  EXPECT_EQ(summary.last_day, 3u);
  EXPECT_EQ(summary.records_total, 12u);
  EXPECT_LT(summary.compression_ratio, 0.5);  // the headline acceptance bar

  // History covers every archived day; 10.1.0/24 is published on day 1
  // only.
  const auto history = query.history(v4(10, 1, 0));
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].day, 1u);
  EXPECT_TRUE(history[0].published);
  EXPECT_TRUE(history[0].anycast_based);
  EXPECT_FALSE(history[1].published);
  EXPECT_FALSE(history[2].published);

  const auto stability = query.stability();
  EXPECT_FALSE(stability.from_checkpoint);
  EXPECT_EQ(stability.anycast_based.days, 3u);
  // Day-specific prefixes: union 12, none present every day.
  EXPECT_EQ(stability.anycast_based.union_size, 12u);
  EXPECT_EQ(stability.anycast_based.every_day, 0u);
}

}  // namespace
}  // namespace laces::store
