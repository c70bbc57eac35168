#include "mesh/wire.hpp"

#include <algorithm>
#include <utility>

namespace laces::mesh {

std::vector<std::uint8_t> encode_mesh(const MeshMessage& message) {
  return codec::encode(message);
}

MeshMessage decode_mesh(std::span<const std::uint8_t> bytes) {
  return codec::decode<MeshMessage, serve::ProtocolError>(bytes, "mesh");
}

std::vector<std::uint8_t> chunk_frame(const std::string& key,
                                      const DeltaChunk& chunk,
                                      std::vector<std::uint8_t> storage) {
  return serve::write_frame(key, serve::FrameKind::kMesh, 0,
                            codec::tagged<MeshMessage>(chunk),
                            serve::kMeshProtocolVersion, std::move(storage));
}

std::vector<DeltaChunk> chunk_delta(store::DayDelta delta,
                                    std::size_t max_rows) {
  if (max_rows == 0) max_rows = 1;
  std::vector<DeltaChunk> chunks;
  std::size_t up = 0;
  std::size_t rm = 0;
  std::uint32_t seq = 0;
  do {
    DeltaChunk chunk;
    chunk.day = delta.day;
    chunk.seq = seq++;
    chunk.degraded = delta.degraded;
    chunk.lost_sites = delta.lost_sites;
    chunk.canary_alarms = delta.canary_alarms;
    std::size_t room = max_rows;
    while (room > 0 && up < delta.upserts.size()) {
      chunk.upserts.push_back(std::move(delta.upserts[up++]));
      --room;
    }
    while (room > 0 && rm < delta.removals.size()) {
      chunk.removals.push_back(delta.removals[rm++]);
      --room;
    }
    chunk.last = up == delta.upserts.size() && rm == delta.removals.size();
    chunks.push_back(std::move(chunk));
  } while (up < delta.upserts.size() || rm < delta.removals.size());
  return chunks;
}

bool prefix_covers(const net::Prefix& filter, const net::Prefix& p) {
  if (filter.version() != p.version()) return false;
  if (filter.version() == net::IpVersion::kV4) {
    return filter.v4().contains(p.v4());
  }
  return filter.v6().length() <= p.v6().length() &&
         filter.v6().contains(p.v6().address());
}

namespace {

bool row_matches(const net::Prefix& p, std::uint8_t family,
                 const std::vector<net::Prefix>& prefixes) {
  if (family == 4 && p.version() != net::IpVersion::kV4) return false;
  if (family == 6 && p.version() != net::IpVersion::kV6) return false;
  if (prefixes.empty()) return true;
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&p](const net::Prefix& f) { return prefix_covers(f, p); });
}

}  // namespace

DeltaChunk filter_chunk(const DeltaChunk& chunk, std::uint8_t family,
                        const std::vector<net::Prefix>& prefixes) {
  DeltaChunk out;
  out.day = chunk.day;
  out.seq = chunk.seq;
  out.last = chunk.last;
  out.degraded = chunk.degraded;
  out.lost_sites = chunk.lost_sites;
  out.canary_alarms = chunk.canary_alarms;
  for (const auto& row : chunk.upserts) {
    if (row_matches(row.prefix, family, prefixes)) out.upserts.push_back(row);
  }
  for (const auto& p : chunk.removals) {
    if (row_matches(p, family, prefixes)) out.removals.push_back(p);
  }
  return out;
}

bool keeps_every_row(const DeltaChunk& chunk, std::uint8_t family,
                     const std::vector<net::Prefix>& prefixes) {
  if (family == 0 && prefixes.empty()) return true;
  const auto kept = [&](const net::Prefix& p) {
    return row_matches(p, family, prefixes);
  };
  return std::all_of(
             chunk.upserts.begin(), chunk.upserts.end(),
             [&](const store::DeltaRow& row) { return kept(row.prefix); }) &&
         std::all_of(chunk.removals.begin(), chunk.removals.end(), kept);
}

}  // namespace laces::mesh
