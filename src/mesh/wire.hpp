// Mesh wire messages: the relay-to-relay plane carried in FrameKind::kMesh
// frames (protocol version >= kMeshProtocolVersion).
//
// A mesh payload is a one-byte tag (variant index + 1) followed by the
// message's fields() — the same codec (net/codec.hpp) as the serve
// request/response bodies. Three message families share the plane:
//
//   handshake   Hello / Welcome / Reject — peer identity, version range
//               negotiation and feed advertisement. Handshake frames are
//               always encoded at kMeshProtocolVersion; the *negotiation*
//               rides in the payload's version_min/version_max fields (so a
//               version-pinned relay can still say "no" in a well-formed
//               frame instead of silently dropping).
//   forwarding  Forward / ForwardReply — a canonical serve request body
//               passed up the subscription tree, relay to upstream, until
//               a relay with a server answers it; the reply retraces the
//               path as each call's return value. The hop counter bounds
//               the walk should the tree ever contain a cycle.
//   pub/sub     Subscribe / SubAck / DeltaChunk / DeltaAck — the census
//               delta feed. A DeltaChunk is a slice of a store::DayDelta
//               plus a (day, seq) cursor; `last` marks the day complete.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/codec.hpp"
#include "serve/protocol.hpp"
#include "store/delta.hpp"

// The delta row a DeltaChunk carries, declared in its type's namespace so
// the codec finds it by argument lookup.
namespace laces::store {
void fields(auto& io, codec::Is<DeltaRow> auto& row) {
  io(row.prefix, row.line);
}
}  // namespace laces::store

namespace laces::mesh {

/// Connection opener: who I am and what I can speak.
struct Hello {
  std::uint64_t node_id = 0;
  std::string name;
  std::uint8_t version_min = serve::kProtocolVersionMin;
  std::uint8_t version_max = serve::kProtocolVersionMax;
  /// True when this relay originates or relays a census delta feed.
  bool has_feed = false;
  bool operator==(const Hello&) const = default;
};
void fields(auto& io, codec::Is<Hello> auto& m) {
  io(m.node_id, m.name, m.version_min, m.version_max, m.has_feed);
}

/// Handshake accept: the responder's identity and the negotiated version
/// (min of the two maxima; must cover both minima and the mesh floor).
struct Welcome {
  std::uint64_t node_id = 0;
  std::string name;
  std::uint8_t version = 0;
  bool has_feed = false;
  bool operator==(const Welcome&) const = default;
};
void fields(auto& io, codec::Is<Welcome> auto& m) {
  io(m.node_id, m.name, m.version, m.has_feed);
}

/// Typed handshake refusal (version mismatch, policy).
struct Reject {
  serve::ErrorCode code = serve::ErrorCode::kBadRequest;
  std::string message;
  bool operator==(const Reject&) const = default;
};
void fields(auto& io, codec::Is<Reject> auto& m) {
  io(codec::one_of(m.code, serve::kAllErrorCodes), m.message);
}

/// A serve request passed to a relay's upstream on behalf of a client.
/// `request` is the canonical request body (the response-cache key), so
/// the answering server needs no re-canonicalizing. `hops_left` starts at
/// mesh::kForwardHopBudget and drops by one per relay that passes the
/// request on; a relay without a server refuses it at zero.
struct Forward {
  std::uint64_t forward_id = 0;   // (origin node_id << 48) | counter
  std::uint64_t origin_node = 0;
  std::uint8_t hops_left = 0;
  std::vector<std::uint8_t> request;
  bool operator==(const Forward&) const = default;
};
void fields(auto& io, codec::Is<Forward> auto& m) {
  io(m.forward_id, m.origin_node, m.hops_left, m.request);
}

/// The canonical response body: the return value of the Forward call, so
/// it comes back down exactly the path the request went up.
struct ForwardReply {
  std::uint64_t forward_id = 0;
  std::vector<std::uint8_t> response;
  bool operator==(const ForwardReply&) const = default;
};
void fields(auto& io, codec::Is<ForwardReply> auto& m) {
  io(m.forward_id, m.response);
}

/// Resumable feed position: the last fully applied (day, seq).
struct Cursor {
  std::uint32_t day = 0;
  std::uint32_t seq = 0;
  friend auto operator<=>(const Cursor&, const Cursor&) = default;
};
void fields(auto& io, codec::Is<Cursor> auto& c) { io(c.day, c.seq); }

/// Feed registration. With `resume` set, `cursor` is the subscriber's
/// resume point — the publisher replays everything strictly after it, so
/// a reconnecting subscriber loses nothing and re-applies nothing. A
/// fresh subscriber (resume = false) gets the feed from its beginning;
/// the flag exists because cursor (0, 0) is a real feed position.
struct Subscribe {
  std::uint64_t subscription_id = 0;  // subscriber-assigned
  std::uint8_t family = 0;            // 0 = both, 4, 6
  std::uint8_t priority = 0;          // higher flushes first
  std::vector<net::Prefix> prefixes;  // empty = all prefixes
  bool resume = false;
  Cursor cursor;
  bool operator==(const Subscribe&) const = default;
};
void fields(auto& io, codec::Is<Subscribe> auto& m) {
  io(m.subscription_id, codec::one_of(m.family, serve::kSubscriptionFamilies),
     m.priority, m.prefixes, m.resume, m.cursor);
}

struct SubAck {
  std::uint64_t subscription_id = 0;
  bool ok = false;
  std::string message;
  bool operator==(const SubAck&) const = default;
};
void fields(auto& io, codec::Is<SubAck> auto& m) {
  io(m.subscription_id, m.ok, m.message);
}

/// One slice of a day's delta. Every chunk repeats the day header (a
/// subscriber may join mid-day); `last` marks the day's final chunk —
/// the point where a follower's render() is the day's publication bytes.
struct DeltaChunk {
  std::uint32_t day = 0;
  std::uint32_t seq = 0;
  bool last = false;
  bool degraded = false;
  std::uint16_t lost_sites = 0;
  std::uint32_t canary_alarms = 0;
  std::vector<store::DeltaRow> upserts;
  std::vector<net::Prefix> removals;
  bool operator==(const DeltaChunk&) const = default;
};
void fields(auto& io, codec::Is<DeltaChunk> auto& m) {
  io(m.day, m.seq, m.last, m.degraded, m.lost_sites, m.canary_alarms,
     m.upserts, m.removals);
}

/// Cursor advance: the subscriber has durably applied (day, seq).
struct DeltaAck {
  std::uint64_t subscription_id = 0;
  Cursor cursor;
  bool operator==(const DeltaAck&) const = default;
};
void fields(auto& io, codec::Is<DeltaAck> auto& m) {
  io(m.subscription_id, m.cursor);
}

using MeshMessage =
    std::variant<Hello, Welcome, Reject, Forward, ForwardReply, Subscribe,
                 SubAck, DeltaChunk, DeltaAck>;

/// Tagged-body codec. decode_mesh throws serve::ProtocolError on any
/// rejection (net/codec.hpp).
std::vector<std::uint8_t> encode_mesh(const MeshMessage& message);
MeshMessage decode_mesh(std::span<const std::uint8_t> bytes);

/// A chunk's signed push frame (kMesh, request_id 0, kMeshProtocolVersion),
/// written in one buffer straight from the chunk: the same bytes as
/// encode_frame(key, kMesh, 0, encode_mesh(MeshMessage{chunk}),
/// kMeshProtocolVersion), without the MeshMessage copy or a second buffer.
/// The frame reuses `storage`'s capacity.
std::vector<std::uint8_t> chunk_frame(const std::string& key,
                                      const DeltaChunk& chunk,
                                      std::vector<std::uint8_t> storage = {});

/// Splits a day's delta into chunks of at most `max_rows` rows (upserts +
/// removals), moving the rows into them. Always yields at least one chunk
/// — an unchanged day still advances every subscriber's cursor. Chunking
/// is deterministic, so a replayed day re-chunks to identical (day, seq)
/// coordinates.
std::vector<DeltaChunk> chunk_delta(store::DayDelta delta,
                                    std::size_t max_rows);

/// True when subscription filter prefix `filter` covers census prefix `p`
/// (same family, filter no longer than p, addresses nested).
bool prefix_covers(const net::Prefix& filter, const net::Prefix& p);

/// Applies a subscription's family/prefix filter to a chunk's rows. The
/// (day, seq, last) header always survives — a fully filtered chunk is
/// still delivered so the subscriber's cursor stays continuous.
DeltaChunk filter_chunk(const DeltaChunk& chunk, std::uint8_t family,
                        const std::vector<net::Prefix>& prefixes);

/// True when the filter keeps every row of `chunk`, so that filter_chunk
/// would return a copy equal to it.
bool keeps_every_row(const DeltaChunk& chunk, std::uint8_t family,
                     const std::vector<net::Prefix>& prefixes);

}  // namespace laces::mesh
