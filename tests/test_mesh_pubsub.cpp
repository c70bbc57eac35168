// Pub/sub plane: the ISSUE's end-to-end contract. A subscriber that
// joins at day 0 and applies every delta chunk reconstructs any
// completed day byte-identically to the offline archive export — and to
// the served JSON — including across a mid-series disconnect/reconnect
// with cursor resume, with the publisher running the real sharded
// census pipeline. Plus: priority classes flush high-priority first,
// family/prefix filters scope the feed without breaking cursor
// continuity, stale cursors fall back to the archive at the origin and
// are refused with a typed SubAck at a pure relay (which resumes any
// cursor its log still holds), as is a Subscribe from a relay's own
// upstream, a push that races a disconnect is dropped and then replayed,
// and day commits roll the negative response cache of co-located
// servers, origin and mirror alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "census/pipeline.hpp"
#include "core/session.hpp"
#include "mesh/relay.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "support.hpp"

namespace laces::mesh {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("laces_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
               std::uint8_t len = 24) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), len);
}

net::Prefix v6(std::uint64_t hi, std::uint8_t len = 48) {
  return net::Ipv6Prefix(net::Ipv6Address(hi, 0), len);
}

/// Synthetic census with both families and day-varying membership, so
/// consecutive deltas carry upserts *and* removals.
census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread = 6) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 1000 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    if ((day + i) % 3 == 0) continue;  // intermittent prefixes
    census::PrefixRecord rec;
    rec.prefix = i % 2 == 0 ? v4(10, 0, static_cast<std::uint8_t>(i))
                            : v6(0x20010db800000000ull + i);
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + (day + i) % 4};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

std::string archived_csv(store::ArchiveReader& reader, std::uint32_t day) {
  std::ostringstream out;
  reader.export_csv(day, out);
  return out.str();
}

RelayConfig relay_config(std::uint64_t node_id) {
  RelayConfig config;
  config.node_id = node_id;
  config.name = "relay-" + std::to_string(node_id);
  return config;
}

// --- the acceptance-criteria test: real pipeline, 4 shards, 2-hop chain,
// disconnect/reconnect mid-series, byte-identity per day ---

TEST(MeshPubSub, SubscriberReconstructsEveryDayByteIdentically) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();

  const auto dir = fresh_dir("mesh_pubsub_e2e");
  store::ArchiveWriter writer(dir);

  // Chain: origin -> b -> c; declared after the writer so they detach
  // before it dies.
  Relay origin(relay_config(1), nullptr, dir);
  Relay b(relay_config(2));
  Relay c(relay_config(3));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, b).ok);
  ASSERT_TRUE(connect(b, c).ok);

  // Day-0 subscriber at the tail.
  CensusFollower follower(c);

  // The real census pipeline on 4 event-loop shards is the publisher.
  const auto& world = laces::testing::shared_tiny_world();
  EventQueue events;
  topo::SimNetwork network(world, events);
  network.enable_sharding(4);
  core::Session session(network, platform::make_production_deployment(world));
  census::PipelineConfig config;
  config.targets_per_second = 50000;
  census::Pipeline pipeline(network, session,
                            platform::make_ark(world, 20, 0xa),
                            platform::make_ark(world, 12, 0xb), config);

  for (std::uint32_t day = 1; day <= 3; ++day) {
    writer.append(pipeline.run_day(day));
    if (day == 1) disconnect(b, c);       // c misses day 2 live...
    if (day == 2) {
      const auto resumed = connect(b, c);  // ...and resumes from its cursor
      ASSERT_TRUE(resumed.ok) << resumed.message;
    }
  }

  store::ArchiveReader reader(dir);
  ASSERT_EQ(follower.days(), 3u);
  for (std::uint32_t day = 1; day <= 3; ++day) {
    ASSERT_TRUE(follower.has_day(day)) << "day " << day;
    const auto golden = archived_csv(reader, day);
    EXPECT_EQ(follower.day_csv(day), golden) << "day " << day;
    // The JSON wrapper matches a served export-day response byte for byte.
    EXPECT_EQ(follower.day_json(day),
              serve::json_response(serve::Response{
                  serve::ExportDayResponse{day, golden}}));
  }
  EXPECT_EQ(follower.cursor().day, 3u);
  EXPECT_EQ(c.stats().duplicate_deltas, 0u);
  EXPECT_EQ(b.stats().duplicate_deltas, 0u);
}

// --- priority classes ---

TEST(MeshPubSub, HighPriorityClassFlushesFirst) {
  const auto dir = fresh_dir("mesh_pubsub_prio");
  store::ArchiveWriter writer(dir);
  auto config = relay_config(1);
  config.max_rows_per_chunk = 2;  // several chunks per day
  Relay origin(config, nullptr, dir);
  origin.attach_publisher(writer);

  std::vector<std::tuple<char, std::uint32_t, std::uint32_t>> order;
  // The low-priority class subscribes first; priority still wins.
  SubscriptionSpec lo_spec;
  lo_spec.priority = 0;
  origin.subscribe_local(lo_spec, [&order](const DeltaChunk& chunk) {
    order.emplace_back('l', chunk.day, chunk.seq);
  });
  SubscriptionSpec hi_spec;
  hi_spec.priority = 9;
  origin.subscribe_local(hi_spec, [&order](const DeltaChunk& chunk) {
    order.emplace_back('h', chunk.day, chunk.seq);
  });

  writer.append(make_day(1));
  writer.append(make_day(2));
  ASSERT_FALSE(order.empty());
  ASSERT_EQ(order.size() % 2, 0u);
  // Per chunk: the high-priority subscription is flushed first, then the
  // low-priority one, in lockstep over identical (day, seq) coordinates.
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(std::get<0>(order[i]), 'h') << "pair " << i / 2;
    EXPECT_EQ(std::get<0>(order[i + 1]), 'l') << "pair " << i / 2;
    EXPECT_EQ(std::get<1>(order[i]), std::get<1>(order[i + 1]));
    EXPECT_EQ(std::get<2>(order[i]), std::get<2>(order[i + 1]));
  }
}

// --- family / prefix filters ---

TEST(MeshPubSub, FiltersScopeRowsWithoutBreakingCursorContinuity) {
  const auto dir = fresh_dir("mesh_pubsub_filter");
  store::ArchiveWriter writer(dir);
  Relay origin(relay_config(1), nullptr, dir);
  origin.attach_publisher(writer);

  std::vector<DeltaChunk> v4_chunks;
  SubscriptionSpec v4_spec;
  v4_spec.family = 4;
  origin.subscribe_local(v4_spec, [&v4_chunks](const DeltaChunk& chunk) {
    v4_chunks.push_back(chunk);
  });

  std::vector<DeltaChunk> scoped_chunks;
  SubscriptionSpec scoped_spec;
  scoped_spec.prefixes = {v4(10, 0, 0, 16)};
  origin.subscribe_local(scoped_spec,
                         [&scoped_chunks](const DeltaChunk& chunk) {
                           scoped_chunks.push_back(chunk);
                         });

  // A filter that matches nothing must still see every cursor position.
  std::vector<DeltaChunk> empty_chunks;
  SubscriptionSpec empty_spec;
  empty_spec.prefixes = {v4(192, 168, 0, 16)};
  origin.subscribe_local(empty_spec,
                         [&empty_chunks](const DeltaChunk& chunk) {
                           empty_chunks.push_back(chunk);
                         });

  writer.append(make_day(1));
  writer.append(make_day(2));

  ASSERT_FALSE(v4_chunks.empty());
  bool saw_v4_row = false;
  for (const auto& chunk : v4_chunks) {
    for (const auto& row : chunk.upserts) {
      EXPECT_EQ(row.prefix.version(), net::IpVersion::kV4);
      saw_v4_row = true;
    }
    for (const auto& prefix : chunk.removals) {
      EXPECT_EQ(prefix.version(), net::IpVersion::kV4);
    }
  }
  EXPECT_TRUE(saw_v4_row);

  for (const auto& chunk : scoped_chunks) {
    for (const auto& row : chunk.upserts) {
      EXPECT_TRUE(prefix_covers(v4(10, 0, 0, 16), row.prefix));
    }
  }

  // Header-only chunks: same cursor stream as the unfiltered feed.
  ASSERT_EQ(empty_chunks.size(), v4_chunks.size());
  for (std::size_t i = 0; i < empty_chunks.size(); ++i) {
    EXPECT_TRUE(empty_chunks[i].upserts.empty());
    EXPECT_TRUE(empty_chunks[i].removals.empty());
    EXPECT_EQ(empty_chunks[i].day, v4_chunks[i].day);
    EXPECT_EQ(empty_chunks[i].seq, v4_chunks[i].seq);
    EXPECT_EQ(empty_chunks[i].last, v4_chunks[i].last);
  }
}

// --- archive fallback at the origin ---

TEST(MeshPubSub, LateJoinerReplaysFromArchiveWhenLogEvicted) {
  const auto dir = fresh_dir("mesh_pubsub_late");
  store::ArchiveWriter writer(dir);
  auto config = relay_config(1);
  config.max_rows_per_chunk = 2;
  config.delta_log_chunks = 1;  // evict almost immediately
  Relay origin(config, nullptr, dir);
  origin.attach_publisher(writer);
  for (std::uint32_t day = 1; day <= 3; ++day) writer.append(make_day(day));

  // The in-memory log cannot serve a from-scratch replay any more; the
  // origin must recompute the deltas from its archive.
  CensusFollower follower(origin);
  store::ArchiveReader reader(dir);
  ASSERT_EQ(follower.days(), 3u);
  for (std::uint32_t day = 1; day <= 3; ++day) {
    EXPECT_EQ(follower.day_csv(day), archived_csv(reader, day))
        << "day " << day;
  }
}

// --- a publisher attached to an archive that already holds days ---

TEST(MeshPubSub, PublisherOnPopulatedArchiveDiffsAgainstItsLastDay) {
  const auto dir = fresh_dir("mesh_pubsub_populated");
  store::ArchiveWriter writer(dir);
  writer.append(make_day(1));
  writer.append(make_day(2));

  // The publisher arrives after two archived days: its first live delta
  // must be diffed against day 2 as archived, not against nothing.
  Relay origin(relay_config(1), nullptr, dir);
  origin.attach_publisher(writer);
  CensusFollower follower(origin);
  std::vector<DeltaChunk> day3;
  origin.subscribe_local({}, [&day3](const DeltaChunk& chunk) {
    if (chunk.day == 3) day3.push_back(chunk);
  });
  writer.append(make_day(3));

  store::ArchiveReader reader(dir);
  ASSERT_TRUE(follower.has_day(3));
  EXPECT_EQ(follower.day_csv(3), archived_csv(reader, 3));

  const auto published2 = make_day(2).published_prefixes();
  const auto published3 = make_day(3).published_prefixes();
  std::vector<net::Prefix> dropped;
  std::set_difference(published2.begin(), published2.end(),
                      published3.begin(), published3.end(),
                      std::back_inserter(dropped));
  ASSERT_FALSE(dropped.empty());
  std::vector<net::Prefix> removals;
  for (const auto& chunk : day3) {
    removals.insert(removals.end(), chunk.removals.begin(),
                    chunk.removals.end());
  }
  ASSERT_FALSE(day3.empty());
  EXPECT_TRUE(day3.back().last);
  EXPECT_EQ(removals, dropped);
}

// --- stale cursor at a pure relay: typed refusal, then recovery ---

TEST(MeshPubSub, PureRelayRefusesStaleCursorOriginRecovers) {
  const auto dir = fresh_dir("mesh_pubsub_stale");
  store::ArchiveWriter writer(dir);
  auto origin_config = relay_config(1);
  origin_config.max_rows_per_chunk = 2;
  Relay origin(origin_config, nullptr, dir);
  auto b_config = relay_config(2);
  b_config.max_rows_per_chunk = 2;
  b_config.delta_log_chunks = 1;  // pure relay with a tiny replay window
  Relay b(b_config);
  Relay c(relay_config(3));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, b).ok);
  for (std::uint32_t day = 1; day <= 3; ++day) writer.append(make_day(day));

  // b's log no longer reaches back to the feed start and b has no
  // archive: the from-scratch Subscribe gets a failed SubAck, typed, and
  // c stays feed-less instead of receiving a hole.
  ASSERT_TRUE(connect(b, c).ok);
  EXPECT_TRUE(b.has_feed());
  EXPECT_FALSE(c.has_feed());

  // The origin can serve the same cursor from its archive.
  ASSERT_TRUE(connect(c, origin).ok);
  EXPECT_TRUE(c.has_feed());
  EXPECT_EQ(c.feed_cursor().day, 3u);
}

// --- a resume served from a partly evicted log, or from the archive ---

TEST(MeshPubSub, ResumeServedFromAPartlyEvictedLogOrTheArchive) {
  const auto dir = fresh_dir("mesh_pubsub_window");
  store::ArchiveWriter writer(dir);
  // One chunk per day (default chunk size); both logs keep two chunks.
  auto origin_config = relay_config(1);
  origin_config.delta_log_chunks = 2;
  Relay origin(origin_config, nullptr, dir);
  auto b_config = relay_config(2);
  b_config.delta_log_chunks = 2;
  Relay b(b_config);
  Relay c(relay_config(3));
  Relay d(relay_config(4));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, b).ok);
  ASSERT_TRUE(connect(b, c).ok);
  ASSERT_TRUE(connect(b, d).ok);
  CensusFollower c_days(c);
  CensusFollower d_days(d);
  writer.append(make_day(1));
  writer.append(make_day(2));
  disconnect(b, d);  // d's cursor: day 2
  writer.append(make_day(3));
  disconnect(b, c);  // c's cursor: day 3
  writer.append(make_day(4));  // b's log: days 3 and 4

  // c's cursor is still inside b's log: b resumes it from there.
  ASSERT_TRUE(connect(b, c).ok);
  EXPECT_TRUE(c.has_feed());
  // d's cursor fell out of b's log, and b has no archive: refused.
  ASSERT_TRUE(connect(b, d).ok);
  EXPECT_FALSE(d.has_feed());
  // The origin's log lost day 3 as well, but it replays from its archive.
  ASSERT_TRUE(connect(d, origin).ok);
  EXPECT_TRUE(d.has_feed());

  store::ArchiveReader reader(dir);
  for (const CensusFollower* follower : {&c_days, &d_days}) {
    ASSERT_EQ(follower->days(), 4u);
    for (std::uint32_t day = 1; day <= 4; ++day) {
      EXPECT_EQ(follower->day_csv(day), archived_csv(reader, day))
          << "day " << day;
    }
  }
  EXPECT_EQ(c.stats().duplicate_deltas, 0u);
  EXPECT_EQ(d.stats().duplicate_deltas, 0u);
}

// --- a push that races a disconnect is dropped, then replayed ---

TEST(MeshPubSub, PushRacingADisconnectIsDroppedThenReplayed) {
  const auto dir = fresh_dir("mesh_pubsub_race");
  store::ArchiveWriter writer(dir);
  Relay origin(relay_config(1), nullptr, dir);
  Relay b(relay_config(2));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, b).ok);
  CensusFollower follower(b);
  writer.append(make_day(1));

  // disconnect(b, origin) makes b forget origin first, then waits for
  // origin's lock, which the day-2 push holds. A sink flushed ahead of
  // b's subscription holds that push until b has forgotten origin, so
  // the push reaches b in between and must count as dropped.
  std::thread cutter;
  SubscriptionSpec first;
  first.priority = 9;
  origin.subscribe_local(first, [&](const DeltaChunk& chunk) {
    if (chunk.day != 2 || cutter.joinable()) return;
    cutter = std::thread([&] { disconnect(b, origin); });
    // Safe under origin's lock: origin -> b is the push lock order.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (b.has_feed() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  writer.append(make_day(2));
  cutter.join();
  EXPECT_GT(origin.stats().deltas_dropped, 0u);
  EXPECT_FALSE(follower.has_day(2));

  // b's cursor stayed on day 1, so the reconnect replays day 2 whole.
  ASSERT_TRUE(connect(origin, b).ok);
  store::ArchiveReader reader(dir);
  ASSERT_TRUE(follower.has_day(2));
  EXPECT_EQ(follower.day_csv(2), archived_csv(reader, 2));
  EXPECT_EQ(b.stats().duplicate_deltas, 0u);
}

// --- Subscribe requests: a loop is refused, a repeat updates ---

TEST(MeshPubSub, SubscribeRefusesALoopAndUpdatesARepeat) {
  const auto dir = fresh_dir("mesh_pubsub_loop");
  store::ArchiveWriter writer(dir);
  Relay origin(relay_config(1), nullptr, dir);
  Relay b(relay_config(2));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, b).ok);
  ASSERT_TRUE(b.has_feed());

  const auto& key = b.config().key;
  const auto subscribe = [&key](Relay& to, Relay& from, Subscribe sub) {
    const auto frame = serve::encode_frame(
        key, serve::FrameKind::kMesh, 0, encode_mesh(MeshMessage{sub}),
        serve::kMeshProtocolVersion);
    const auto reply = decode_mesh(
        serve::decode_frame(key, to.request(&from, frame)).payload);
    return std::get<SubAck>(reply);
  };

  // origin is b's upstream: following b would close a feed cycle.
  const SubAck loop = subscribe(b, origin,
                                Subscribe{.subscription_id = 7,
                                          .family = 0,
                                          .priority = 0,
                                          .prefixes = {},
                                          .resume = false,
                                          .cursor = {}});
  EXPECT_EQ(loop.subscription_id, 7u);
  EXPECT_FALSE(loop.ok);
  EXPECT_EQ(loop.message, "subscription loop refused");
  EXPECT_TRUE(b.stats().subscriptions.empty());

  // b subscribing again under the same id updates its one subscription.
  ASSERT_EQ(origin.stats().subscriptions.size(), 1u);
  const std::uint64_t id = origin.stats().subscriptions[0].id;
  const SubAck repeat = subscribe(origin, b,
                                  Subscribe{.subscription_id = id,
                                            .family = 4,
                                            .priority = 0,
                                            .prefixes = {},
                                            .resume = false,
                                            .cursor = {}});
  EXPECT_TRUE(repeat.ok);
  const auto subs = origin.stats().subscriptions;
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].family, 4u);
}

// --- one frame per chunk: relays forward the verified bytes ---

TEST(MeshPubSub, RelayForwardsOnlyVerifiedNewChunks) {
  const auto dir = fresh_dir("mesh_pubsub_forward");
  store::ArchiveWriter writer(dir);
  Relay origin(relay_config(1), nullptr, dir);
  Relay mid(relay_config(2));
  Relay leaf(relay_config(3));
  origin.attach_publisher(writer);
  ASSERT_TRUE(connect(origin, mid).ok);
  ASSERT_TRUE(connect(mid, leaf).ok);
  CensusFollower follower(leaf);
  writer.append(make_day(1));
  ASSERT_TRUE(follower.has_day(1));
  // The origin wrote the day's one chunk frame; mid passed it on.
  EXPECT_EQ(origin.push_frames_built(), 1u);
  EXPECT_EQ(mid.push_frames_built(), 0u);

  const auto leaf_received = [&leaf] {
    return leaf.stats().peers.at(0).deltas_received;  // mid is its one peer
  };
  const Cursor leaf_cursor = leaf.feed_cursor();
  const std::uint64_t received = leaf_received();
  const Cursor follower_cursor = follower.cursor();
  const auto leaf_unchanged = [&] {
    EXPECT_EQ(leaf.feed_cursor(), leaf_cursor);
    EXPECT_EQ(leaf_received(), received);
    EXPECT_EQ(follower.cursor(), follower_cursor);
    EXPECT_EQ(follower.days(), 1u);
  };

  // A day-2 chunk with any one byte flipped fails verification at mid,
  // and nothing of it reaches the leaf.
  const auto& key = mid.config().key;
  DeltaChunk next;
  next.day = 2;
  next.last = true;
  next.upserts = {{v4(10, 0, 9), "10.0.9.0/24,forwarded"}};
  const auto frame = chunk_frame(key, next);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto tampered = frame;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(mid.deliver(&origin, tampered)) << "byte " << i;
  }
  EXPECT_EQ(mid.feed_cursor(), (Cursor{1, 0}));
  leaf_unchanged();

  // A duplicate verifies and is acked, but is not forwarded.
  DeltaChunk again;
  again.day = 1;
  again.last = true;
  EXPECT_TRUE(mid.deliver(&origin, chunk_frame(key, again)));
  EXPECT_EQ(mid.stats().duplicate_deltas, 1u);
  leaf_unchanged();

  // The intact frame is applied at mid and forwarded, not re-written.
  EXPECT_TRUE(mid.deliver(&origin, frame));
  EXPECT_EQ(leaf.feed_cursor(), (Cursor{2, 0}));
  EXPECT_EQ(leaf_received(), received + 1);
  EXPECT_TRUE(follower.has_day(2));
  EXPECT_EQ(mid.push_frames_built(), 0u);
}

TEST(MeshPubSub, FilterThatKeepsEveryRowSharesTheUnfilteredFrame) {
  const auto dir = fresh_dir("mesh_pubsub_shared_frame");
  store::ArchiveWriter writer(dir);
  auto config = relay_config(1);
  config.max_rows_per_chunk = 2;  // several chunks per day
  Relay origin(config, nullptr, dir);
  origin.attach_publisher(writer);
  Relay whole(relay_config(2));    // unfiltered
  Relay covered(relay_config(3));  // a filter that covers every row
  Relay narrowed(relay_config(4)); // v6 only: drops the v4 rows
  for (Relay* peer : {&whole, &covered, &narrowed}) {
    ASSERT_TRUE(connect(origin, *peer).ok);
  }
  // Re-register a peer's subscription under its id with a filter.
  const auto& key = origin.config().key;
  const auto refilter = [&](Relay& peer, std::uint8_t family,
                            std::vector<net::Prefix> prefixes) {
    std::uint64_t id = 0;
    for (const auto& sub : origin.stats().subscriptions) {
      if (sub.subscriber == peer.name()) id = sub.id;
    }
    const auto frame = serve::encode_frame(
        key, serve::FrameKind::kMesh, 0,
        encode_mesh(MeshMessage{Subscribe{.subscription_id = id,
                                          .family = family,
                                          .priority = 0,
                                          .prefixes = std::move(prefixes),
                                          .resume = false,
                                          .cursor = {}}}),
        serve::kMeshProtocolVersion);
    const auto reply = decode_mesh(
        serve::decode_frame(key, origin.request(&peer, frame)).payload);
    return std::get<SubAck>(reply).ok;
  };
  ASSERT_TRUE(refilter(covered, 0,
                       {v4(10, 0, 0, 8), v6(0x20010db800000000ull, 32)}));
  ASSERT_TRUE(refilter(narrowed, 6, {}));

  // What the origin published, and what each peer relay applied.
  std::vector<DeltaChunk> published;
  std::vector<const DeltaChunk*> published_at;
  origin.subscribe_local({}, [&](const DeltaChunk& chunk) {
    published.push_back(chunk);
    published_at.push_back(&chunk);
  });
  // A v4 local sink: it gets the chunk itself whenever it drops nothing.
  std::vector<const DeltaChunk*> v4_local_at;
  origin.subscribe_local(
      SubscriptionSpec{4, 0, {v4(10, 0, 0, 8)}},
      [&](const DeltaChunk& chunk) { v4_local_at.push_back(&chunk); });
  std::vector<DeltaChunk> at_whole, at_covered, at_narrowed;
  whole.subscribe_local({}, [&](const DeltaChunk& c) { at_whole.push_back(c); });
  covered.subscribe_local(
      {}, [&](const DeltaChunk& c) { at_covered.push_back(c); });
  narrowed.subscribe_local(
      {}, [&](const DeltaChunk& c) { at_narrowed.push_back(c); });

  writer.append(make_day(1));
  writer.append(make_day(2));
  ASSERT_GT(published.size(), 2u);
  EXPECT_EQ(at_whole, published);
  EXPECT_EQ(at_covered, published);
  ASSERT_EQ(at_narrowed.size(), published.size());
  ASSERT_EQ(v4_local_at.size(), published.size());
  const auto has = [](const DeltaChunk& chunk, net::IpVersion family) {
    const auto in = [family](const net::Prefix& p) {
      return p.version() == family;
    };
    return std::any_of(chunk.upserts.begin(), chunk.upserts.end(),
                       [&](const store::DeltaRow& r) { return in(r.prefix); }) ||
           std::any_of(chunk.removals.begin(), chunk.removals.end(), in);
  };
  std::uint64_t narrowed_frames = 0;
  for (std::size_t i = 0; i < published.size(); ++i) {
    EXPECT_EQ(at_narrowed[i], filter_chunk(published[i], 6, {})) << i;
    if (has(published[i], net::IpVersion::kV4)) ++narrowed_frames;
    EXPECT_EQ(v4_local_at[i] == published_at[i],
              !has(published[i], net::IpVersion::kV6))
        << i;
  }
  // One frame per chunk serves both `whole` and `covered`, so the two got
  // the same bytes; only a chunk `narrowed` loses rows from costs another.
  EXPECT_EQ(origin.push_frames_built(), published.size() + narrowed_frames);
}

// --- day commits roll the co-located server's negative cache ---

TEST(MeshPubSub, DayCommitClearsNegativeResponseCache) {
  const auto dir = fresh_dir("mesh_pubsub_negcache");
  store::ArchiveWriter writer(dir);
  writer.append(make_day(1));
  writer.append(make_day(2));

  store::ArchiveReader reader(dir);
  serve::ServerConfig server_config;
  server_config.threads = 2;
  serve::Server server(reader, server_config);
  Relay relay(relay_config(1), &server, dir);
  relay.attach_publisher(writer);
  // A mirror: its own server over the same archive, fed by the origin.
  serve::Server mirror_server(reader, server_config);
  Relay mirror(relay_config(2), &mirror_server);
  ASSERT_TRUE(connect(relay, mirror).ok);

  const auto ask_unknown_day = [](Relay& at) {
    const auto& key = at.config().key;
    static std::uint64_t id = 0;
    const auto frame = serve::encode_frame(
        key, serve::FrameKind::kRequest, ++id,
        serve::encode_request(serve::Request{serve::ExportDayRequest{99}}));
    const auto response = serve::decode_response(
        serve::decode_frame(key, at.query(frame)).payload);
    ASSERT_TRUE(std::holds_alternative<serve::ErrorResponse>(response));
    EXPECT_EQ(std::get<serve::ErrorResponse>(response).code,
              serve::ErrorCode::kUnknownDay);
  };

  for (Relay* at : {&relay, &mirror}) {
    ask_unknown_day(*at);  // miss -> negative entry
    ask_unknown_day(*at);  // negative hit
    EXPECT_EQ(at->stats().negative_cache_hits, 1u);
  }
  EXPECT_EQ(server.cache().negative_hits(), 1u);

  // A committed day un-falsifies cached negatives: the origin's commit
  // hook clears both cache arenas, and so does the day's last chunk
  // arriving at the mirror.
  writer.append(make_day(3));
  for (Relay* at : {&relay, &mirror}) {
    ask_unknown_day(*at);  // miss again (entry was cleared)
    ask_unknown_day(*at);  // fresh negative hit
  }
  server.drain();
  mirror_server.drain();
  EXPECT_EQ(server.cache().negative_hits(), 2u);
  EXPECT_EQ(mirror_server.cache().negative_hits(), 2u);
}

}  // namespace
}  // namespace laces::mesh
