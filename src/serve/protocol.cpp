#include "serve/protocol.hpp"

#include "core/channel.hpp"
#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace laces::serve {

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kUnknownDay:
      return "unknown-day";
    case ErrorCode::kCorruptArchive:
      return "corrupt-archive";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kVersionMismatch:
      return "version-mismatch";
    case ErrorCode::kUnreachable:
      return "unreachable";
  }
  return "?";
}

std::vector<std::uint8_t> encode_request(const Request& request) {
  return codec::encode(request);
}

Request decode_request(std::span<const std::uint8_t> bytes) {
  return codec::decode<Request, ProtocolError>(bytes, "request");
}

std::vector<std::uint8_t> encode_response(const Response& response) {
  return codec::encode(response);
}

Response decode_response(std::span<const std::uint8_t> bytes) {
  return codec::decode<Response, ProtocolError>(bytes, "response");
}

namespace frame_detail {

ByteWriter begin_frame(FrameKind kind, std::uint64_t request_id,
                       std::size_t payload_len, std::uint8_t version,
                       std::vector<std::uint8_t> storage) {
  ByteWriter w(std::move(storage));
  w.reserve(kFrameHeaderBytes + payload_len + kFrameMacBytes);
  w.u16(kFrameMagic);
  w.u8(version);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(payload_len));
  return w;
}

std::vector<std::uint8_t> seal_frame(const std::string& key, ByteWriter& w) {
  // The MAC covers the whole frame prefix — header *and* payload — so a
  // tampered request_id or kind fails authentication, not just a tampered
  // body.
  const Sha256Digest mac = core::frame_mac(key, w.view());
  w.bytes(mac);
  return w.take();
}

}  // namespace frame_detail

std::vector<std::uint8_t> encode_frame(const std::string& key, FrameKind kind,
                                       std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload,
                                       std::uint8_t version) {
  return write_frame(key, kind, request_id, codec::raw(payload), version);
}

FrameView read_frame(const std::string& key,
                     std::span<const std::uint8_t> bytes,
                     std::uint8_t max_version) {
  try {
    ByteReader r(bytes);
    if (r.u16() != kFrameMagic) throw ProtocolError("frame: bad magic");
    const std::uint8_t version = r.u8();
    if (version < kProtocolVersionMin || version > max_version ||
        version > kProtocolVersionMax) {
      throw ProtocolError("frame: unsupported protocol version " +
                          std::to_string(version));
    }
    const std::uint8_t kind = r.u8();
    if (kind != static_cast<std::uint8_t>(FrameKind::kRequest) &&
        kind != static_cast<std::uint8_t>(FrameKind::kResponse) &&
        kind != static_cast<std::uint8_t>(FrameKind::kMesh)) {
      throw ProtocolError("frame: unknown kind " + std::to_string(kind));
    }
    if (kind == static_cast<std::uint8_t>(FrameKind::kMesh) &&
        version < kMeshProtocolVersion) {
      throw ProtocolError("frame: mesh frames require protocol version >= " +
                          std::to_string(kMeshProtocolVersion));
    }
    FrameView frame;
    frame.version = version;
    frame.kind = static_cast<FrameKind>(kind);
    frame.request_id = r.u64();
    frame.payload = r.bytes(r.u32());
    const auto mac_bytes = r.bytes(kFrameMacBytes);
    if (!r.done()) throw ProtocolError("frame: trailing bytes");
    Sha256Digest mac;
    std::copy(mac_bytes.begin(), mac_bytes.end(), mac.begin());
    const auto signed_prefix = bytes.first(bytes.size() - kFrameMacBytes);
    if (!digest_equal(mac, core::frame_mac(key, signed_prefix))) {
      throw ProtocolError("frame: MAC verification failed");
    }
    return frame;
  } catch (const DecodeError& e) {
    throw ProtocolError(std::string("frame: ") + e.what());
  }
}

Frame decode_frame(const std::string& key, std::span<const std::uint8_t> bytes,
                   std::uint8_t max_version) {
  const FrameView view = read_frame(key, bytes, max_version);
  return Frame{view.version, view.kind, view.request_id,
               {view.payload.begin(), view.payload.end()}};
}

std::string_view request_label(const Request& request) {
  return std::visit(
      [](const auto& req) -> std::string_view {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, SummaryRequest>) return "summary";
        if constexpr (std::is_same_v<T, StabilityRequest>) return "stability";
        if constexpr (std::is_same_v<T, HistoryRequest>) return "history";
        if constexpr (std::is_same_v<T, IntermittentRequest>) {
          return "intermittent";
        }
        if constexpr (std::is_same_v<T, ExportDayRequest>) return "export-day";
        if constexpr (std::is_same_v<T, StatsRequest>) return "stats";
        if constexpr (std::is_same_v<T, LatencyRequest>) return "latency";
        if constexpr (std::is_same_v<T, TraceTailRequest>) return "trace-tail";
        if constexpr (std::is_same_v<T, FlightRecTailRequest>) {
          return "flightrec-tail";
        }
        if constexpr (std::is_same_v<T, MeshStatsRequest>) return "mesh-stats";
      },
      request);
}

bool is_admin_request(const Request& request) {
  return std::holds_alternative<StatsRequest>(request) ||
         std::holds_alternative<LatencyRequest>(request) ||
         std::holds_alternative<TraceTailRequest>(request) ||
         std::holds_alternative<FlightRecTailRequest>(request) ||
         std::holds_alternative<MeshStatsRequest>(request);
}

}  // namespace laces::serve
