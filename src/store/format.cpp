#include "store/format.hpp"

#include <algorithm>
#include <cstdio>

#include "util/sha256.hpp"

namespace laces::store {

std::string segment_file_name(std::uint32_t day) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "day-%05u.seg", day);
  return buf;
}

namespace {

std::uint64_t pack_v4(const net::Ipv4Prefix& p) {
  return (static_cast<std::uint64_t>(p.address().value()) << 8) | p.length();
}

net::Ipv4Prefix unpack_v4(std::uint64_t key) {
  return net::Ipv4Prefix(
      net::Ipv4Address(static_cast<std::uint32_t>(key >> 8)),
      static_cast<std::uint8_t>(key & 0xFF));
}

}  // namespace

void put_prefix_list(ByteWriter& w, std::span<const net::Prefix> prefixes) {
  w.varint(prefixes.size());
  std::uint64_t prev_v4 = 0;
  std::uint64_t prev_hi = 0;
  for (const auto& p : prefixes) {
    if (p.version() == net::IpVersion::kV4) {
      w.u8(4);
      const std::uint64_t key = pack_v4(p.v4());
      w.svarint(static_cast<std::int64_t>(key - prev_v4));
      prev_v4 = key;
    } else {
      w.u8(6);
      const auto& p6 = p.v6();
      const std::uint64_t hi = p6.address().hi();
      w.svarint(static_cast<std::int64_t>(hi - prev_hi));
      prev_hi = hi;
      w.varint(p6.address().lo());
      w.varint(p6.length());
    }
  }
}

std::vector<net::Prefix> get_prefix_list(ByteReader& r) {
  // A v4 entry is at least a family tag and a one-byte delta.
  const std::uint64_t count = get_count(r, 2, "prefix list");
  std::vector<net::Prefix> out;
  out.reserve(count);
  std::uint64_t prev_v4 = 0;
  std::uint64_t prev_hi = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t tag = r.u8();
    if (tag == 4) {
      prev_v4 += static_cast<std::uint64_t>(r.svarint());
      if ((prev_v4 & 0xFF) > 32 || prev_v4 >> 40) {
        throw ArchiveError("prefix list: bad v4 key " +
                           std::to_string(prev_v4));
      }
      out.push_back(unpack_v4(prev_v4));
    } else if (tag == 6) {
      prev_hi += static_cast<std::uint64_t>(r.svarint());
      const std::uint64_t lo = r.varint();
      const std::uint64_t len = r.varint();
      if (len > 128) {
        throw ArchiveError("prefix list: bad v6 length " +
                           std::to_string(len));
      }
      out.push_back(net::Ipv6Prefix(net::Ipv6Address(prev_hi, lo),
                                    static_cast<std::uint8_t>(len)));
    } else {
      throw ArchiveError("prefix list: bad family tag " +
                         std::to_string(tag));
    }
  }
  return out;
}

std::uint64_t get_count(ByteReader& r, std::size_t min_bytes,
                        const char* what) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining() / min_bytes) {
    throw ArchiveError(std::string(what) + ": count " +
                       std::to_string(count) + " exceeds the bytes left");
  }
  return count;
}

void put_sha256_footer(ByteWriter& w) {
  const Sha256Digest digest = Sha256::hash(w.view());
  w.bytes(digest);
}

std::span<const std::uint8_t> checked_payload(
    std::span<const std::uint8_t> bytes, const char* what) {
  if (bytes.size() < sizeof(Sha256Digest)) {
    throw ArchiveError(std::string(what) + ": truncated (" +
                       std::to_string(bytes.size()) + " bytes)");
  }
  const auto payload = bytes.subspan(0, bytes.size() - sizeof(Sha256Digest));
  const auto footer = bytes.subspan(payload.size());
  Sha256Digest stored;
  std::copy(footer.begin(), footer.end(), stored.begin());
  const Sha256Digest actual = Sha256::hash(payload);
  if (!digest_equal(stored, actual)) {
    throw ArchiveError(std::string(what) +
                       ": SHA-256 footer mismatch (stored " +
                       to_hex(stored) + ", computed " + to_hex(actual) + ")");
  }
  return payload;
}

std::string footer_hex(std::span<const std::uint8_t> bytes) {
  Sha256Digest footer;
  const auto tail = bytes.last(footer.size());
  std::copy(tail.begin(), tail.end(), footer.begin());
  return to_hex(footer);
}

}  // namespace laces::store
