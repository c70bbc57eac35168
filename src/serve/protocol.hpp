// laces_serve wire protocol: versioned, length-framed, HMAC-authenticated
// binary request/response pairs over an immutable census archive.
//
// A frame is
//
//   magic u16 ('L''S') | version u8 | kind u8 | request_id u64 |
//   payload_len u32 | payload bytes | HMAC-SHA256(key, payload) [32 bytes]
//
// The MAC is core::frame_mac — exactly the scheme the simulated
// control-plane Channel authenticates with (paper R8), so the query server
// inherits the census system's auth model instead of inventing one. The
// payload is the *canonical* encoding of a request or response body (each
// body's fields() is its wire layout, net/codec.hpp): the request's
// canonical bytes double as the server's response-cache key, and a
// response body is byte-identical whether it was computed or served from
// cache. request_id lives in the frame header, not the payload, so two
// clients asking the same question hash to the same cache entry.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "net/address.hpp"
#include "net/codec.hpp"
#include "store/query.hpp"

// Wire layouts of the query results the serve plane carries, declared in
// their types' namespaces so the codec finds them by argument lookup.
namespace laces::census {
void fields(auto& io, codec::Is<StabilityStats> auto& s) {
  io(codec::varint(s.days), codec::varint(s.degraded_days),
     codec::varint(s.union_size), codec::varint(s.every_day), s.daily_mean);
}
}  // namespace laces::census

namespace laces::store {
void fields(auto& io, codec::Is<HistoryDay> auto& h) {
  io(h.day,
     codec::flags(h.degraded, h.published, h.anycast_based, h.gcd_confirmed),
     codec::varint(h.max_vp_count), codec::varint(h.gcd_sites));
}
}  // namespace laces::store

namespace laces::serve {

/// Thrown when a frame or payload fails structural or cryptographic
/// validation (bad magic, unsupported version, length mismatch, bad MAC,
/// malformed body).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr std::uint16_t kFrameMagic = 0x4c53;  // "LS"
/// The v1 data plane: request/response frames. Unchanged since PR 5, so
/// every existing client keeps working byte-for-byte.
constexpr std::uint8_t kProtocolVersion = 1;
/// Version 2 adds the mesh plane (FrameKind::kMesh). A decoder accepts
/// [kProtocolVersionMin, kProtocolVersionMax]; relays negotiate the
/// highest version both peers speak (serve/../mesh/wire.hpp).
constexpr std::uint8_t kProtocolVersionMin = 1;
constexpr std::uint8_t kProtocolVersionMax = 2;
/// First frame version that carries mesh messages.
constexpr std::uint8_t kMeshProtocolVersion = 2;

enum class FrameKind : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  /// Relay-to-relay mesh message (v2 frames only): the payload is a
  /// mesh::wire tagged body, not a Request/Response.
  kMesh = 3,
};

// --- requests ---

/// Manifest-only archive summary.
struct SummaryRequest {
  bool operator==(const SummaryRequest&) const = default;
};
void fields(auto&, codec::Is<SummaryRequest> auto&) {}

/// Longitudinal stability statistics (both methods).
struct StabilityRequest {
  bool operator==(const StabilityRequest&) const = default;
};
void fields(auto&, codec::Is<StabilityRequest> auto&) {}

/// Per-day detection history of one prefix.
struct HistoryRequest {
  net::Prefix prefix;
  bool operator==(const HistoryRequest&) const = default;
};
void fields(auto& io, codec::Is<HistoryRequest> auto& m) { io(m.prefix); }

/// Intermittent prefix sets (detected on some but not all healthy days).
struct IntermittentRequest {
  bool operator==(const IntermittentRequest&) const = default;
};
void fields(auto&, codec::Is<IntermittentRequest> auto&) {}

/// One archived day in the §4.2.4 CSV publication format.
struct ExportDayRequest {
  std::uint32_t day = 0;
  bool operator==(const ExportDayRequest&) const = default;
};
void fields(auto& io, codec::Is<ExportDayRequest> auto& m) { io(m.day); }

// --- admin (introspection) requests ---
//
// Admin requests ride the same authenticated frames as data queries, but
// the server answers them inline on the submitting thread: they never
// enter the worker queue, are never cached, and are still served while
// the server is draining — an overloaded or shutting-down server can
// always be asked what is wrong with it.

/// Worker-pool, admission, cache and flight-recorder counters.
struct StatsRequest {
  bool operator==(const StatsRequest&) const = default;
};
void fields(auto&, codec::Is<StatsRequest> auto&) {}

/// Per-stage latency percentiles (queue wait / archive read / render /
/// total) from the server's LogHistograms.
struct LatencyRequest {
  bool operator==(const LatencyRequest&) const = default;
};
void fields(auto&, codec::Is<LatencyRequest> auto&) {}

/// Most recent finished trace spans (0 = all retained).
struct TraceTailRequest {
  std::uint32_t max = 0;
  bool operator==(const TraceTailRequest&) const = default;
};
void fields(auto& io, codec::Is<TraceTailRequest> auto& m) { io(m.max); }

/// Merged flight-recorder tail (0 = everything retained).
struct FlightRecTailRequest {
  std::uint32_t max = 0;
  bool operator==(const FlightRecTailRequest&) const = default;
};
void fields(auto& io, codec::Is<FlightRecTailRequest> auto& m) { io(m.max); }

/// Per-peer mesh state: connected peers, subscriptions, cursor lag,
/// dropped-delta counts (src/mesh/relay.hpp). Answered inline by a relay;
/// a plain archive server answers with an empty snapshot.
struct MeshStatsRequest {
  bool operator==(const MeshStatsRequest&) const = default;
};
void fields(auto&, codec::Is<MeshStatsRequest> auto&) {}

// New request types append at the END: the wire tag is the variant index
// + 1, so earlier tags — and every archived client — keep their wire bytes.
using Request = std::variant<SummaryRequest, StabilityRequest, HistoryRequest,
                             IntermittentRequest, ExportDayRequest,
                             StatsRequest, LatencyRequest, TraceTailRequest,
                             FlightRecTailRequest, MeshStatsRequest>;

/// True for the introspection requests the server answers inline.
bool is_admin_request(const Request& request);

// --- responses ---

/// Typed failure. kOverloaded and kShuttingDown are *admission* errors —
/// the request never reached a worker; retry_after_ms tells a well-behaved
/// client how long to back off.
enum class ErrorCode : std::uint8_t {
  kBadRequest = 1,    // malformed or unauthenticated request frame
  kUnknownDay = 2,    // day not present in the manifest
  kCorruptArchive = 3,  // a segment failed its SHA-256 / digest check
  kOverloaded = 4,    // queue full or per-connection in-flight cap hit
  kShuttingDown = 5,  // server is draining
  kVersionMismatch = 6,  // peers share no protocol version (mesh handshake)
  kUnreachable = 7,   // no relay in reach could answer (forward dead-end)
};

/// Every ErrorCode: the bytes a decoder accepts. Append new codes here too.
inline constexpr std::array<ErrorCode, 7> kAllErrorCodes = {
    ErrorCode::kBadRequest,     ErrorCode::kUnknownDay,
    ErrorCode::kCorruptArchive, ErrorCode::kOverloaded,
    ErrorCode::kShuttingDown,   ErrorCode::kVersionMismatch,
    ErrorCode::kUnreachable};

std::string_view to_string(ErrorCode code);

struct ErrorResponse {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
  std::uint32_t retry_after_ms = 0;
  bool operator==(const ErrorResponse&) const = default;
};
void fields(auto& io, codec::Is<ErrorResponse> auto& m) {
  io(codec::one_of(m.code, kAllErrorCodes), m.message, m.retry_after_ms);
}

struct SummaryResponse {
  store::ArchiveSummary summary;
  bool operator==(const SummaryResponse&) const = default;
};
void fields(auto& io, codec::Is<SummaryResponse> auto& m) {
  auto& s = m.summary;
  io(codec::varint(s.days), codec::varint(s.degraded_days), s.first_day,
     s.last_day, codec::varint(s.records_total),
     codec::varint(s.segment_bytes), codec::varint(s.csv_bytes),
     s.compression_ratio, s.anycast_daily_mean, s.gcd_daily_mean);
}

struct StabilityResponse {
  store::StabilityReport report;
  bool operator==(const StabilityResponse&) const = default;
};
void fields(auto& io, codec::Is<StabilityResponse> auto& m) {
  io(m.report.anycast_based, m.report.gcd, m.report.from_checkpoint);
}

struct HistoryResponse {
  net::Prefix prefix;
  std::vector<store::HistoryDay> days;
  bool operator==(const HistoryResponse&) const = default;
};
void fields(auto& io, codec::Is<HistoryResponse> auto& m) {
  io(m.prefix, m.days);
}

struct IntermittentResponse {
  std::vector<net::Prefix> anycast_based;
  std::vector<net::Prefix> gcd;
  bool operator==(const IntermittentResponse&) const = default;
};
void fields(auto& io, codec::Is<IntermittentResponse> auto& m) {
  io(m.anycast_based, m.gcd);
}

struct ExportDayResponse {
  std::uint32_t day = 0;
  std::string csv;
  bool operator==(const ExportDayResponse&) const = default;
};
void fields(auto& io, codec::Is<ExportDayResponse> auto& m) {
  io(m.day, m.csv);
}

// --- admin (introspection) responses ---

/// A point-in-time operational snapshot of one server.
struct ServeStats {
  std::uint64_t requests_executed = 0;  // cache misses a worker answered
  std::uint64_t requests_shed = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t response_cache_hits = 0;
  std::uint64_t response_cache_misses = 0;
  std::uint64_t response_cache_evictions = 0;
  std::uint64_t response_cache_entries = 0;
  /// Negative arena (cached typed misses, e.g. unknown-day errors).
  std::uint64_t negative_cache_hits = 0;
  std::uint64_t negative_cache_entries = 0;
  std::uint64_t segment_cache_hits = 0;   // ArchiveReader decoded-segment LRU
  std::uint64_t segment_cache_misses = 0;
  std::uint64_t flightrec_recorded = 0;
  std::uint64_t flightrec_overwritten = 0;
  std::uint32_t workers = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t queue_capacity = 0;
  std::uint32_t active_spans = 0;  // open (unfinished) trace spans
  bool draining = false;
  bool operator==(const ServeStats&) const = default;
};
void fields(auto& io, codec::Is<ServeStats> auto& s) {
  io(codec::varint(s.requests_executed), codec::varint(s.requests_shed),
     codec::varint(s.auth_failures), codec::varint(s.response_cache_hits),
     codec::varint(s.response_cache_misses),
     codec::varint(s.response_cache_evictions),
     codec::varint(s.response_cache_entries),
     codec::varint(s.negative_cache_hits),
     codec::varint(s.negative_cache_entries),
     codec::varint(s.segment_cache_hits),
     codec::varint(s.segment_cache_misses),
     codec::varint(s.flightrec_recorded),
     codec::varint(s.flightrec_overwritten), s.workers, s.queue_depth,
     s.queue_capacity, s.active_spans, s.draining);
}

struct StatsResponse {
  ServeStats stats;
  bool operator==(const StatsResponse&) const = default;
};
void fields(auto& io, codec::Is<StatsResponse> auto& m) { io(m.stats); }

/// One instrumented request-path stage ("queue_wait", "archive_read",
/// "render", "total"), percentiles in microseconds.
struct StageLatency {
  std::string stage;
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  bool operator==(const StageLatency&) const = default;
};
void fields(auto& io, codec::Is<StageLatency> auto& s) {
  io(s.stage, codec::varint(s.count), s.p50_us, s.p99_us, s.p999_us,
     s.max_us);
}

struct LatencyResponse {
  std::vector<StageLatency> stages;
  bool operator==(const LatencyResponse&) const = default;
};
void fields(auto& io, codec::Is<LatencyResponse> auto& m) { io(m.stages); }

/// A finished trace span (obs::SpanRecord, flattened for the wire).
struct SpanInfo {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;  // simulated time
  std::int64_t end_ns = 0;
  bool operator==(const SpanInfo&) const = default;
};
void fields(auto& io, codec::Is<SpanInfo> auto& s) {
  io(codec::varint(s.id), codec::varint(s.parent), s.name, s.start_ns,
     s.end_ns);
}

struct TraceTailResponse {
  std::vector<SpanInfo> spans;
  std::uint64_t dropped = 0;  // spans lost to the tracer's buffer bound
  bool operator==(const TraceTailResponse&) const = default;
};
void fields(auto& io, codec::Is<TraceTailResponse> auto& m) {
  io(m.spans, codec::varint(m.dropped));
}

/// One flight-recorder event (obs::DecodedFlightEvent on the wire).
struct FlightEvent {
  std::int64_t wall_ns = 0;
  std::int64_t sim_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t seq = 0;
  std::uint32_t b = 0;
  std::uint32_t ring = 0;
  std::uint16_t code = 0;
  std::uint8_t kind = 0;
  bool operator==(const FlightEvent&) const = default;
};
void fields(auto& io, codec::Is<FlightEvent> auto& e) {
  io(e.wall_ns, e.sim_ns, e.a, codec::varint(e.seq), e.b, e.ring, e.code,
     e.kind);
}

struct FlightRecTailResponse {
  std::vector<FlightEvent> events;
  bool operator==(const FlightRecTailResponse&) const = default;
};
void fields(auto& io, codec::Is<FlightRecTailResponse> auto& m) {
  io(m.events);
}

/// One connected mesh peer as seen by the answering relay.
struct MeshPeerInfo {
  std::uint64_t node_id = 0;
  std::string name;
  std::uint8_t version = 0;  // negotiated frame version on this link
  std::uint64_t forwards_sent = 0;
  std::uint64_t forwards_received = 0;
  std::uint64_t deltas_sent = 0;
  std::uint64_t deltas_received = 0;
  bool operator==(const MeshPeerInfo&) const = default;
};
void fields(auto& io, codec::Is<MeshPeerInfo> auto& p) {
  io(p.node_id, p.name, p.version, codec::varint(p.forwards_sent),
     codec::varint(p.forwards_received), codec::varint(p.deltas_sent),
     codec::varint(p.deltas_received));
}

/// Subscription family filters: 0 = both, 4, 6.
inline constexpr std::array<std::uint8_t, 3> kSubscriptionFamilies = {0, 4, 6};

/// One subscription registered at the answering relay.
struct MeshSubscriptionInfo {
  std::uint64_t id = 0;
  std::string subscriber;  // peer name, or "local" for in-process sinks
  std::uint8_t family = 0;  // 0 = both, 4, 6
  std::uint8_t priority = 0;  // higher flushes first
  std::uint32_t prefix_count = 0;  // 0 = all prefixes
  std::uint32_t acked_day = 0;
  std::uint32_t acked_seq = 0;
  /// Feed-head distance: days the subscriber's ack trails the relay's feed.
  std::uint32_t lag_days = 0;
  std::uint64_t chunks_pushed = 0;
  std::uint64_t chunks_dropped = 0;
  bool operator==(const MeshSubscriptionInfo&) const = default;
};
void fields(auto& io, codec::Is<MeshSubscriptionInfo> auto& s) {
  io(codec::varint(s.id), s.subscriber,
     codec::one_of(s.family, kSubscriptionFamilies), s.priority,
     s.prefix_count, s.acked_day, s.acked_seq, s.lag_days,
     codec::varint(s.chunks_pushed), codec::varint(s.chunks_dropped));
}

struct MeshStatsResponse {
  std::uint64_t node_id = 0;
  std::string name;
  std::uint32_t feed_day = 0;  // newest census day this relay has seen
  std::uint32_t feed_seq = 0;
  std::uint64_t deltas_published = 0;  // chunks originated here
  std::uint64_t deltas_forwarded = 0;  // chunks pushed to subscribers
  std::uint64_t deltas_dropped = 0;    // pushes to vanished peers
  std::uint64_t duplicate_deltas = 0;  // chunks at-or-below our cursor
  std::uint64_t forwards_seen = 0;     // Forward frames received from peers
  /// Forwards refused because their hop budget ran out (only a
  /// subscription cycle spends it). The field name predates hop budgets
  /// and stays for wire and JSON compatibility.
  std::uint64_t forward_dups_suppressed = 0;
  std::uint64_t forwards_answered = 0;  // answered from cache or archive
  std::uint64_t negative_cache_hits = 0;
  std::vector<MeshPeerInfo> peers;
  std::vector<MeshSubscriptionInfo> subscriptions;
  bool operator==(const MeshStatsResponse&) const = default;
};
void fields(auto& io, codec::Is<MeshStatsResponse> auto& m) {
  io(m.node_id, m.name, m.feed_day, m.feed_seq,
     codec::varint(m.deltas_published), codec::varint(m.deltas_forwarded),
     codec::varint(m.deltas_dropped), codec::varint(m.duplicate_deltas),
     codec::varint(m.forwards_seen), codec::varint(m.forward_dups_suppressed),
     codec::varint(m.forwards_answered), codec::varint(m.negative_cache_hits),
     m.peers, m.subscriptions);
}

// Appended at the END (see the Request variant note).
using Response =
    std::variant<ErrorResponse, SummaryResponse, StabilityResponse,
                 HistoryResponse, IntermittentResponse, ExportDayResponse,
                 StatsResponse, LatencyResponse, TraceTailResponse,
                 FlightRecTailResponse, MeshStatsResponse>;

// --- body codecs (canonical bytes) ---

/// Canonical request encoding; identical requests encode to identical
/// bytes (this is the response-cache key).
std::vector<std::uint8_t> encode_request(const Request& request);
Request decode_request(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_response(const Response& response);
Response decode_response(std::span<const std::uint8_t> bytes);

// --- framing ---

/// What a frame adds around its payload: the header before it (magic
/// through payload_len) and the MAC after it.
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameMacBytes = 32;

namespace frame_detail {
/// A buffer sized for a whole frame whose payload is `payload_len` bytes,
/// holding the frame's header; it reuses `storage`'s capacity.
ByteWriter begin_frame(FrameKind kind, std::uint64_t request_id,
                       std::size_t payload_len, std::uint8_t version,
                       std::vector<std::uint8_t> storage);
/// Appends the MAC over everything `w` holds and returns the frame.
std::vector<std::uint8_t> seal_frame(const std::string& key, ByteWriter& w);
}  // namespace frame_detail

/// The one frame writer. A frame is built in one buffer: the header, then
/// `body` written in place by the codec, then the MAC over both. A
/// counting pass over the same fields() sizes the buffer first, so it
/// never grows. `body` is anything the codec writes: a message variant,
/// one message as its variant would write it (codec::tagged), or a body
/// that is already encoded (codec::raw). The frame reuses `storage`'s
/// capacity, so a caller that writes many frames can keep one buffer.
template <class Body>
std::vector<std::uint8_t> write_frame(const std::string& key, FrameKind kind,
                                      std::uint64_t request_id,
                                      const Body& body, std::uint8_t version,
                                      std::vector<std::uint8_t> storage = {}) {
  ByteWriter w =
      frame_detail::begin_frame(kind, request_id, codec::encoded_size(body),
                                version, std::move(storage));
  codec::Writer<ByteWriter> io(w);
  io(body);
  return frame_detail::seal_frame(key, w);
}

/// An authenticated frame read in place: `payload` views the bytes it was
/// read from and is valid only while they are.
struct FrameView {
  std::uint8_t version = kProtocolVersion;
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t request_id = 0;
  std::span<const std::uint8_t> payload;
};

/// The one frame reader: verifies structure and MAC and copies nothing.
/// Throws ProtocolError on any mismatch. `max_version` lets a
/// version-pinned endpoint (e.g. a v1-only relay in a skewed mesh)
/// structurally refuse newer frames instead of parsing them.
FrameView read_frame(const std::string& key,
                     std::span<const std::uint8_t> bytes,
                     std::uint8_t max_version = kProtocolVersionMax);

/// A parsed, authenticated frame that owns its payload.
struct Frame {
  std::uint8_t version = kProtocolVersion;
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Wraps an encoded body in a signed frame (write_frame of codec::raw).
/// `version` defaults to the v1 data plane; mesh frames pass
/// kMeshProtocolVersion (kMesh is rejected below v2 at decode).
std::vector<std::uint8_t> encode_frame(const std::string& key, FrameKind kind,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload,
                                       std::uint8_t version = kProtocolVersion);

/// read_frame with the payload copied out, for callers that keep it.
Frame decode_frame(const std::string& key, std::span<const std::uint8_t> bytes,
                   std::uint8_t max_version = kProtocolVersionMax);

/// Human-readable request label ("summary", "history", ...) for metrics.
std::string_view request_label(const Request& request);

}  // namespace laces::serve
