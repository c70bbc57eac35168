#include "store/segment.hpp"

#include <algorithm>

#include "util/sha256.hpp"

namespace laces::store {
namespace {

/// Segment layout (all multi-byte scalars big-endian or varint):
///   u32 magic  u16 version  u16 flags(bit0=degraded)
///   u32 day  u16 lost_sites  u32 canary_alarms
///   varint anycast_probes_sent  varint gcd_probes_sent
///   prefix_list published        (sorted; the record row order)
///   per-protocol columns x3:     verdict+presence varint, vp_count varint
///   gcd verdict column           (0 = none, else verdict+1)
///   gcd_site_count column
///   partial-anycast bitmap       (ceil(n/8) bytes, LSB-first)
///   locations column             (varint count + varint CityIds per row)
///   prefix_list anycast_targets  (order-preserving)
///   sha256 footer                (32 bytes over everything above)
constexpr std::uint16_t kFlagDegraded = 1;

constexpr net::Protocol kColumnProtocols[] = {
    net::Protocol::kIcmp, net::Protocol::kTcp, net::Protocol::kUdpDns};

const census::PrefixRecord& record_of(const census::DailyCensus& census,
                                      const net::Prefix& prefix) {
  return census.records.at(prefix);
}

}  // namespace

census::DailyCensus published_projection(const census::DailyCensus& census) {
  census::DailyCensus out;
  out.day = census.day;
  out.degraded = census.degraded;
  out.lost_sites = census.lost_sites;
  out.canary_alarms = census.canary_alarms;
  out.anycast_probes_sent = census.anycast_probes_sent;
  out.gcd_probes_sent = census.gcd_probes_sent;
  out.anycast_targets = census.anycast_targets;
  for (const auto& prefix : census.published_prefixes()) {
    out.records.emplace(prefix, record_of(census, prefix));
  }
  return out;
}

std::vector<std::uint8_t> encode_segment(const census::DailyCensus& census) {
  const auto published = census.published_prefixes();  // sorted
  const std::size_t n = published.size();

  ByteWriter w;
  w.u32(kMagic);
  w.u16(kFormatVersion);
  w.u16(census.degraded ? kFlagDegraded : 0);
  w.u32(census.day);
  w.u16(census.lost_sites);
  w.u32(census.canary_alarms);
  w.varint(census.anycast_probes_sent);
  w.varint(census.gcd_probes_sent);

  put_prefix_list(w, published);

  // Column pairs per protocol: absent -> 0, else verdict+1 (so a sparse
  // protocol column is a run of single zero bytes).
  for (const auto protocol : kColumnProtocols) {
    for (const auto& prefix : published) {
      const auto& rec = record_of(census, prefix);
      const auto it = rec.anycast_based.find(protocol);
      w.varint(it == rec.anycast_based.end()
                   ? 0
                   : static_cast<std::uint64_t>(it->second.verdict) + 1);
    }
    for (const auto& prefix : published) {
      const auto& rec = record_of(census, prefix);
      const auto it = rec.anycast_based.find(protocol);
      w.varint(it == rec.anycast_based.end() ? 0 : it->second.vp_count);
    }
  }
  for (const auto& prefix : published) {
    const auto& rec = record_of(census, prefix);
    w.varint(rec.gcd_verdict
                 ? static_cast<std::uint64_t>(*rec.gcd_verdict) + 1
                 : 0);
  }
  for (const auto& prefix : published) {
    w.varint(record_of(census, prefix).gcd_site_count);
  }
  // Partial-anycast bitmap, LSB-first within each byte.
  for (std::size_t base = 0; base < n; base += 8) {
    std::uint8_t byte = 0;
    for (std::size_t bit = 0; bit < 8 && base + bit < n; ++bit) {
      if (record_of(census, published[base + bit]).partial_anycast) {
        byte |= static_cast<std::uint8_t>(1u << bit);
      }
    }
    w.u8(byte);
  }
  for (const auto& prefix : published) {
    const auto& rec = record_of(census, prefix);
    w.varint(rec.gcd_locations.size());
    for (const auto city : rec.gcd_locations) w.varint(city);
  }

  put_prefix_list(w, census.anycast_targets);
  put_sha256_footer(w);
  return w.take();
}

namespace {

census::DailyCensus decode_payload(std::span<const std::uint8_t> payload) {
  try {
    ByteReader r(payload);
    if (r.u32() != kMagic) throw ArchiveError("segment: bad magic");
    const std::uint16_t version = r.u16();
    if (version != kFormatVersion) {
      throw ArchiveError("segment: unsupported format version " +
                         std::to_string(version));
    }
    const std::uint16_t flags = r.u16();

    census::DailyCensus census;
    census.degraded = (flags & kFlagDegraded) != 0;
    census.day = r.u32();
    census.lost_sites = r.u16();
    census.canary_alarms = r.u32();
    census.anycast_probes_sent = r.varint();
    census.gcd_probes_sent = r.varint();

    const auto published = get_prefix_list(r);
    const std::size_t n = published.size();
    std::vector<census::PrefixRecord> records(n);
    for (std::size_t i = 0; i < n; ++i) records[i].prefix = published[i];

    for (const auto protocol : kColumnProtocols) {
      std::vector<std::uint64_t> verdicts(n);
      for (auto& v : verdicts) v = r.varint();
      for (std::size_t i = 0; i < n; ++i) {
        if (verdicts[i] == 0) continue;
        if (verdicts[i] > 3) {
          throw ArchiveError("segment: bad anycast verdict code " +
                             std::to_string(verdicts[i]));
        }
        records[i].anycast_based[protocol].verdict =
            static_cast<core::Verdict>(verdicts[i] - 1);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t vps = r.varint();
        if (verdicts[i] != 0) {
          records[i].anycast_based[protocol].vp_count =
              static_cast<std::uint32_t>(vps);
        } else if (vps != 0) {
          throw ArchiveError("segment: VP count on absent protocol");
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t code = r.varint();
      if (code == 0) continue;
      if (code > 3) {
        throw ArchiveError("segment: bad GCD verdict code " +
                           std::to_string(code));
      }
      records[i].gcd_verdict = static_cast<gcd::GcdVerdict>(code - 1);
    }
    for (std::size_t i = 0; i < n; ++i) {
      records[i].gcd_site_count = static_cast<std::uint32_t>(r.varint());
    }
    for (std::size_t base = 0; base < n; base += 8) {
      const std::uint8_t byte = r.u8();
      for (std::size_t bit = 0; bit < 8 && base + bit < n; ++bit) {
        records[base + bit].partial_anycast = (byte >> bit) & 1;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t count = get_count(r, 1, "segment GCD locations");
      records[i].gcd_locations.reserve(count);
      for (std::uint64_t c = 0; c < count; ++c) {
        records[i].gcd_locations.push_back(
            static_cast<geo::CityId>(r.varint()));
      }
    }

    census.anycast_targets = get_prefix_list(r);
    if (!r.done()) {
      throw ArchiveError("segment: " + std::to_string(r.remaining()) +
                         " trailing bytes");
    }
    for (auto& rec : records) {
      census.records.emplace(rec.prefix, std::move(rec));
    }
    return census;
  } catch (const DecodeError& e) {
    // A truncated column can only happen when the payload was mangled in a
    // way that still passes the digest — or a writer bug; surface as a
    // format error either way.
    throw ArchiveError(std::string("segment: ") + e.what());
  }
}

}  // namespace

census::DailyCensus decode_segment(std::span<const std::uint8_t> bytes) {
  return decode_payload(checked_payload(bytes, "segment"));
}

std::string segment_digest_hex(std::span<const std::uint8_t> bytes) {
  checked_payload(bytes, "segment");
  return footer_hex(bytes);
}

census::DailyCensus decode_verified_segment(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(Sha256Digest)) {
    throw ArchiveError("segment: truncated (" + std::to_string(bytes.size()) +
                       " bytes)");
  }
  return decode_payload(bytes.first(bytes.size() - sizeof(Sha256Digest)));
}

}  // namespace laces::store
