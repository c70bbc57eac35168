// Mesh wire codec: tagged-body round-trips for all nine message types,
// structural rejection (unknown tag, bad enum bytes, trailing bytes,
// truncation), HMAC authentication and version gating through the kMesh
// frame envelope (both frame readers), the one-buffer chunk frame against
// the two-pass one, deterministic delta chunking, and filter semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "mesh/wire.hpp"
#include "serve/protocol.hpp"
#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace laces::mesh {
namespace {

net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
               std::uint8_t len = 24) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), len);
}

net::Prefix v6(std::uint64_t hi, std::uint8_t len = 48) {
  return net::Ipv6Prefix(net::Ipv6Address(hi, 0), len);
}

std::vector<MeshMessage> sample_messages() {
  Hello hello{7, "origin", 1, 2, true};
  Welcome welcome{9, "relay-9", 2, false};
  Reject reject{serve::ErrorCode::kVersionMismatch, "no overlap"};
  Forward forward{(7ull << 48) | 3, 7, 4, {1, 2, 3, 4}};
  ForwardReply reply{(7ull << 48) | 3, {9, 8, 7}};
  Subscribe subscribe{5, 4, 2, {v4(10, 0, 0), v6(0x20010db800000000ull)},
                      true, Cursor{3, 1}};
  SubAck sub_ack{5, false, "cursor predates the delta log"};
  DeltaChunk chunk;
  chunk.day = 12;
  chunk.seq = 2;
  chunk.last = true;
  chunk.degraded = true;
  chunk.lost_sites = 3;
  chunk.canary_alarms = 1;
  chunk.upserts = {{v4(10, 1, 2), "10.1.2.0/24,anycast,..."},
                   {v6(0x20010db8000000ffull), "v6 line"}};
  chunk.removals = {v4(10, 9, 9)};
  DeltaAck delta_ack{5, Cursor{12, 2}};
  return {hello,     welcome, reject,  forward,  reply,
          subscribe, sub_ack, chunk,   delta_ack};
}

TEST(MeshWire, RoundTripsEveryMessageType) {
  for (const MeshMessage& message : sample_messages()) {
    const auto bytes = encode_mesh(message);
    // The tag byte is the variant index + 1 — the append-only invariant.
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(message.index() + 1));
    EXPECT_EQ(decode_mesh(bytes), message);
  }
}

TEST(MeshWire, RejectsStructuralDamage) {
  const auto hello = encode_mesh(MeshMessage{Hello{1, "a", 1, 2, false}});
  // Unknown tag.
  auto bad = hello;
  bad[0] = 200;
  EXPECT_THROW(decode_mesh(bad), serve::ProtocolError);
  // Truncation at every length.
  for (std::size_t n = 0; n < hello.size(); ++n) {
    EXPECT_THROW(
        decode_mesh(std::span(hello.data(), n)), serve::ProtocolError)
        << "length " << n;
  }
  // Trailing bytes.
  auto padded = hello;
  padded.push_back(0);
  EXPECT_THROW(decode_mesh(padded), serve::ProtocolError);
  // Reject's error-code byte must be a known ErrorCode (tag, then code).
  auto reject = encode_mesh(
      MeshMessage{Reject{serve::ErrorCode::kBadRequest, ""}});
  reject[1] = 0;
  EXPECT_THROW(decode_mesh(reject), serve::ProtocolError);
  // Subscribe's family byte must be 0, 4 or 6 (tag + u64 id, then family).
  auto subscribe =
      encode_mesh(MeshMessage{Subscribe{1, 0, 0, {}, false, Cursor{}}});
  subscribe[9] = 5;
  EXPECT_THROW(decode_mesh(subscribe), serve::ProtocolError);
}

TEST(MeshWire, FrameEnvelopeAuthenticatesAndGatesVersion) {
  const std::string key = "mesh-test-key";
  const auto payload = encode_mesh(MeshMessage{Hello{1, "a", 1, 2, true}});
  const auto frame = serve::encode_frame(key, serve::FrameKind::kMesh, 42,
                                         payload,
                                         serve::kMeshProtocolVersion);
  const auto decoded =
      serve::decode_frame(key, frame, serve::kProtocolVersionMax);
  EXPECT_EQ(decoded.kind, serve::FrameKind::kMesh);
  EXPECT_EQ(decoded.version, serve::kMeshProtocolVersion);
  EXPECT_EQ(decoded.request_id, 42u);
  const MeshMessage expected{Hello{1, "a", 1, 2, true}};
  EXPECT_EQ(decode_mesh(decoded.payload), expected);
  // The view reader returns the same frame with its payload left in place.
  const auto view = serve::read_frame(key, frame, serve::kProtocolVersionMax);
  EXPECT_EQ(view.kind, decoded.kind);
  EXPECT_EQ(view.version, decoded.version);
  EXPECT_EQ(view.request_id, decoded.request_id);
  EXPECT_EQ(view.payload.data(), frame.data() + serve::kFrameHeaderBytes);
  EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                         payload.begin(), payload.end()));

  // Every malformed frame below is refused by decode_frame and by the
  // view reader under it.
  const auto expect_rejected = [](const std::string& k,
                                  std::span<const std::uint8_t> bytes,
                                  std::uint8_t max_version) {
    EXPECT_THROW(serve::decode_frame(k, bytes, max_version),
                 serve::ProtocolError);
    EXPECT_THROW(serve::read_frame(k, bytes, max_version),
                 serve::ProtocolError);
  };
  // A v1-pinned decoder refuses the mesh frame (version gate) — typed,
  // not a hang or a misparse.
  expect_rejected(key, frame, serve::kProtocolVersion);
  // Wrong key fails authentication.
  expect_rejected("other-key", frame, serve::kProtocolVersionMax);
  // Flipping any single byte breaks the MAC (or the structure).
  for (std::size_t i = 0; i < frame.size(); ++i) {
    SCOPED_TRACE("byte " + std::to_string(i));
    auto tampered = frame;
    tampered[i] ^= 0x01;
    expect_rejected(key, tampered, serve::kProtocolVersionMax);
  }
  // Truncation at every length, and a trailing byte.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    SCOPED_TRACE("length " + std::to_string(n));
    expect_rejected(key, std::span(frame.data(), n),
                    serve::kProtocolVersionMax);
  }
  auto padded = frame;
  padded.push_back(0);
  expect_rejected(key, padded, serve::kProtocolVersionMax);
}

/// The frame envelope written out by hand (magic, version, kind,
/// request_id 0, payload length, payload, HMAC over all of it), so the
/// frame writer is checked against the layout, not against itself.
std::vector<std::uint8_t> longhand_mesh_frame(
    const std::string& key, std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u16(serve::kFrameMagic);
  w.u8(serve::kMeshProtocolVersion);
  w.u8(static_cast<std::uint8_t>(serve::FrameKind::kMesh));
  w.u64(0);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  w.bytes(hmac_sha256(
      std::span(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      w.view()));
  return w.take();
}

net::Prefix random_prefix(std::mt19937_64& rng) {
  const std::uint64_t bits = rng();
  if (bits % 2 == 0) {
    return v4(static_cast<std::uint8_t>(bits >> 8),
              static_cast<std::uint8_t>(bits >> 16),
              static_cast<std::uint8_t>(bits >> 24));
  }
  return v6(bits << 16);
}

std::string random_line(std::mt19937_64& rng) {
  std::string line(rng() % 300, 'x');
  for (char& c : line) c = static_cast<char>('!' + rng() % 90);
  return line;
}

DeltaChunk random_chunk(std::mt19937_64& rng, std::size_t upserts,
                        std::size_t removals) {
  DeltaChunk chunk;
  chunk.day = static_cast<std::uint32_t>(rng() % 5000);
  chunk.seq = static_cast<std::uint32_t>(rng() % 16);
  chunk.last = rng() % 2 == 0;
  chunk.degraded = rng() % 2 == 0;
  chunk.lost_sites = static_cast<std::uint16_t>(rng());
  chunk.canary_alarms = static_cast<std::uint32_t>(rng());
  for (std::size_t i = 0; i < upserts; ++i) {
    chunk.upserts.push_back({random_prefix(rng), random_line(rng)});
  }
  for (std::size_t i = 0; i < removals; ++i) {
    chunk.removals.push_back(random_prefix(rng));
  }
  return chunk;
}

TEST(MeshWire, OneBufferChunkFrameMatchesTheTwoPassFrame) {
  const std::string key = "mesh-test-key";
  std::mt19937_64 rng(20261019);
  std::vector<DeltaChunk> chunks;
  for (int i = 0; i < 50; ++i) {
    chunks.push_back(random_chunk(rng, rng() % 40, rng() % 20));
  }
  DeltaChunk v6_rows = random_chunk(rng, 0, 0);
  v6_rows.upserts = {{v6(0x20010db800000000ull), "v6 upsert"},
                     {v6(0x2a00145000000000ull, 32), ""}};
  v6_rows.removals = {v6(0x20010db8000000ffull, 64)};
  chunks.push_back(v6_rows);
  chunks.push_back(random_chunk(rng, 0, 9));  // removals only
  chunks.push_back(DeltaChunk{});             // empty
  // A multi-chunk day whose row counts need two-byte varints.
  store::DayDelta day;
  day.day = 77;
  for (std::size_t i = 0; i < 450; ++i) {
    day.upserts.push_back({random_prefix(rng), random_line(rng)});
  }
  for (std::size_t i = 0; i < 130; ++i) {
    day.removals.push_back(random_prefix(rng));
  }
  const auto day_chunks = chunk_delta(day, 200);
  ASSERT_EQ(day_chunks.size(), 3u);
  chunks.insert(chunks.end(), day_chunks.begin(), day_chunks.end());

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    SCOPED_TRACE("chunk " + std::to_string(i));
    const auto payload = encode_mesh(MeshMessage{chunks[i]});
    const auto two_pass = serve::encode_frame(
        key, serve::FrameKind::kMesh, 0, payload, serve::kMeshProtocolVersion);
    EXPECT_EQ(chunk_frame(key, chunks[i]), two_pass);
    EXPECT_EQ(two_pass, longhand_mesh_frame(key, payload));
    EXPECT_EQ(codec::encoded_size(MeshMessage{chunks[i]}), payload.size());
  }
  // Every other mesh message written in place matches too.
  for (const MeshMessage& message : sample_messages()) {
    const auto payload = encode_mesh(message);
    EXPECT_EQ(serve::write_frame(key, serve::FrameKind::kMesh, 0, message,
                                 serve::kMeshProtocolVersion),
              longhand_mesh_frame(key, payload));
  }
}

store::DayDelta sample_delta(std::size_t upserts, std::size_t removals) {
  store::DayDelta delta;
  delta.day = 5;
  delta.degraded = true;
  delta.lost_sites = 2;
  delta.canary_alarms = 7;
  for (std::size_t i = 0; i < upserts; ++i) {
    delta.upserts.push_back(
        {v4(10, 0, static_cast<std::uint8_t>(i)), "line " + std::to_string(i)});
  }
  for (std::size_t i = 0; i < removals; ++i) {
    delta.removals.push_back(v4(10, 1, static_cast<std::uint8_t>(i)));
  }
  return delta;
}

TEST(MeshWire, ChunkingCoversEveryRowDeterministically) {
  const auto delta = sample_delta(10, 7);
  const auto chunks = chunk_delta(delta, 4);
  ASSERT_EQ(chunks.size(), 5u);  // ceil(17 / 4)
  store::DayDelta reassembled;
  reassembled.day = delta.day;
  reassembled.degraded = delta.degraded;
  reassembled.lost_sites = delta.lost_sites;
  reassembled.canary_alarms = delta.canary_alarms;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& chunk = chunks[i];
    EXPECT_EQ(chunk.day, delta.day);
    EXPECT_EQ(chunk.seq, static_cast<std::uint32_t>(i));
    EXPECT_EQ(chunk.last, i + 1 == chunks.size());
    EXPECT_EQ(chunk.degraded, delta.degraded);
    EXPECT_EQ(chunk.lost_sites, delta.lost_sites);
    EXPECT_EQ(chunk.canary_alarms, delta.canary_alarms);
    EXPECT_LE(chunk.upserts.size() + chunk.removals.size(), 4u);
    reassembled.upserts.insert(reassembled.upserts.end(),
                               chunk.upserts.begin(), chunk.upserts.end());
    reassembled.removals.insert(reassembled.removals.end(),
                                chunk.removals.begin(), chunk.removals.end());
  }
  EXPECT_EQ(reassembled, delta);
  // Deterministic re-chunking: a replayed day lands on identical
  // (day, seq) coordinates.
  EXPECT_EQ(chunk_delta(delta, 4), chunks);
  // A single big chunk carries the delta's header and every row exactly.
  const auto whole = chunk_delta(delta, 1000);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_TRUE(whole[0].last);
  EXPECT_EQ(whole[0].day, delta.day);
  EXPECT_EQ(whole[0].degraded, delta.degraded);
  EXPECT_EQ(whole[0].lost_sites, delta.lost_sites);
  EXPECT_EQ(whole[0].canary_alarms, delta.canary_alarms);
  EXPECT_EQ(whole[0].upserts, delta.upserts);
  EXPECT_EQ(whole[0].removals, delta.removals);
}

TEST(MeshWire, EmptyDeltaStillYieldsOneCursorAdvancingChunk) {
  const auto delta = sample_delta(0, 0);
  for (const std::size_t max_rows : {std::size_t{0}, std::size_t{8}}) {
    const auto chunks = chunk_delta(delta, max_rows);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_TRUE(chunks[0].last);
    EXPECT_TRUE(chunks[0].upserts.empty());
    EXPECT_TRUE(chunks[0].removals.empty());
    EXPECT_EQ(chunks[0].day, delta.day);
    EXPECT_TRUE(chunks[0].degraded);
  }
}

TEST(MeshWire, PrefixCovers) {
  EXPECT_TRUE(prefix_covers(v4(10, 0, 0, 16), v4(10, 0, 7)));
  EXPECT_FALSE(prefix_covers(v4(10, 0, 0, 16), v4(10, 1, 7)));
  // A longer filter never covers a shorter prefix.
  EXPECT_FALSE(prefix_covers(v4(10, 0, 7), v4(10, 0, 0, 16)));
  // Family mismatch.
  EXPECT_FALSE(prefix_covers(v4(10, 0, 0, 16), v6(0x20010db800000000ull)));
  EXPECT_TRUE(prefix_covers(v6(0x20010db800000000ull, 32),
                            v6(0x20010db8000000ffull)));
  EXPECT_TRUE(prefix_covers(v4(10, 0, 3), v4(10, 0, 3)));
}

TEST(MeshWire, FilterChunkKeepsHeaderAndFiltersRows) {
  DeltaChunk chunk;
  chunk.day = 3;
  chunk.seq = 1;
  chunk.last = true;
  chunk.upserts = {{v4(10, 0, 1), "a"},
                   {v4(10, 1, 1), "b"},
                   {v6(0x20010db800000000ull), "c"}};
  chunk.removals = {v4(10, 0, 2), v6(0x20010db8000000aaull)};

  // No filter: identity.
  EXPECT_EQ(filter_chunk(chunk, 0, {}), chunk);

  // Family filters.
  const auto only_v4 = filter_chunk(chunk, 4, {});
  EXPECT_EQ(only_v4.upserts.size(), 2u);
  EXPECT_EQ(only_v4.removals.size(), 1u);
  const auto only_v6 = filter_chunk(chunk, 6, {});
  EXPECT_EQ(only_v6.upserts.size(), 1u);
  EXPECT_EQ(only_v6.removals.size(), 1u);

  // Prefix cover.
  const auto scoped = filter_chunk(chunk, 0, {v4(10, 0, 0, 16)});
  ASSERT_EQ(scoped.upserts.size(), 1u);
  EXPECT_EQ(scoped.upserts[0].line, "a");
  ASSERT_EQ(scoped.removals.size(), 1u);

  // Fully filtered: rows drop, but the cursor header survives so the
  // subscriber's (day, seq) stream stays continuous.
  const auto none = filter_chunk(chunk, 0, {v4(192, 168, 0, 16)});
  EXPECT_TRUE(none.upserts.empty());
  EXPECT_TRUE(none.removals.empty());
  EXPECT_EQ(none.day, chunk.day);
  EXPECT_EQ(none.seq, chunk.seq);
  EXPECT_TRUE(none.last);
}

TEST(MeshWire, CursorOrdering) {
  EXPECT_LT(Cursor(1, 5), Cursor(2, 0));
  EXPECT_LT(Cursor(2, 0), Cursor(2, 1));
  EXPECT_EQ(Cursor(3, 3), Cursor(3, 3));
  EXPECT_LE(Cursor(3, 3), Cursor(3, 3));
}

}  // namespace
}  // namespace laces::mesh
