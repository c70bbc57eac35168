// laces_store on-disk format constants and shared prefix codecs.
//
// The archive is a directory:
//   MANIFEST            text index: one line of metadata per archived day
//   day-NNNNN.seg       binary columnar segment for day N (see segment.hpp)
//   checkpoint.bin      resume state (see checkpoint.hpp)
//
// All binary files are deterministic (same census -> same bytes) and
// self-verifying (SHA-256 footer over everything before it). The format
// spec lives in docs/storage.md; bump kFormatVersion on layout changes —
// readers reject versions they do not know rather than guessing.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "util/bytes.hpp"

namespace laces::store {

/// "LACS" — leads every binary file of the archive.
inline constexpr std::uint32_t kMagic = 0x4C414353;
/// On-disk layout version, shared by segments, checkpoint and manifest.
/// v2: checkpoint gained the run-identity string (the --resume guard).
inline constexpr std::uint16_t kFormatVersion = 2;

inline constexpr char kManifestFile[] = "MANIFEST";
inline constexpr char kCheckpointFile[] = "checkpoint.bin";

/// "day-00042.seg" — fixed width so directory listings sort by day.
std::string segment_file_name(std::uint32_t day);

/// Thrown on any malformed, corrupt or version-mismatched archive file.
class ArchiveError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Order-preserving prefix-list codec. Each entry is a 1-byte family tag
/// followed by a zigzag delta against the previous prefix *of the same
/// family* (v4 packs (address << 8 | length) into one u64; v6 deltas the
/// high 64 address bits and stores low bits + length as varints). Sorted
/// lists — the common case: segment record keys — cost ~2 bytes/prefix.
void put_prefix_list(ByteWriter& w, std::span<const net::Prefix> prefixes);
std::vector<net::Prefix> get_prefix_list(ByteReader& r);

/// Reads a varint element count and checks it against the bytes left, each
/// element taking at least `min_bytes`: an inflated count throws
/// ArchiveError (naming `what`) before anything is reserved.
std::uint64_t get_count(ByteReader& r, std::size_t min_bytes,
                        const char* what);

/// Appends a SHA-256 digest over everything written so far; the footer of
/// every binary archive file.
void put_sha256_footer(ByteWriter& w);
/// Splits `bytes` into (payload, digest), verifying the footer. Throws
/// ArchiveError (naming `what`) on truncation or digest mismatch.
std::span<const std::uint8_t> checked_payload(
    std::span<const std::uint8_t> bytes, const char* what);
/// The footer (last 32 bytes) as lowercase hex, without hashing: callers
/// have just written it or verified it with checked_payload. Requires
/// at least 32 bytes.
std::string footer_hex(std::span<const std::uint8_t> bytes);

}  // namespace laces::store
