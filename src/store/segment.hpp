// Binary columnar day segment.
//
// One segment holds one day's *publication* — exactly the records the
// §4.2.4 CSV format publishes (prefixes anycast by either method, with
// both verdicts, VP counts, GCD sites and geolocations) plus what the CSV
// loses: the day's anycast-target list and probe-cost accounting. Fields
// are stored column-wise over the sorted published prefixes with varint +
// zigzag-delta encoding (util/bytes), which lands well under half the CSV
// byte size. A SHA-256 footer makes every segment self-verifying: a single
// flipped bit is detected at load, never silently decoded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "census/census.hpp"
#include "store/format.hpp"

namespace laces::store {

/// Deterministic encoding: the same census always yields identical bytes
/// (records are emitted in sorted-prefix order regardless of map order).
std::vector<std::uint8_t> encode_segment(const census::DailyCensus& census);

/// Decodes and verifies a segment (magic, version, SHA-256 footer, column
/// consistency). Throws ArchiveError on any corruption.
census::DailyCensus decode_segment(std::span<const std::uint8_t> bytes);

/// Verifies the segment footer (one SHA-256 pass over the payload) and
/// returns it as hex: the digest the manifest records. Throws ArchiveError
/// on truncation or a footer mismatch.
std::string segment_digest_hex(std::span<const std::uint8_t> bytes);

/// decode_segment without the footer check, for bytes whose footer
/// segment_digest_hex has already verified (the archive reader hashes each
/// segment once). Still rejects every structural defect.
census::DailyCensus decode_verified_segment(
    std::span<const std::uint8_t> bytes);

/// The publication projection of a census: what a segment (like the CSV
/// format) preserves. decode_segment(encode_segment(x)) compares equal to
/// published_projection(x); tests and the CSV bridge rely on this.
census::DailyCensus published_projection(const census::DailyCensus& census);

}  // namespace laces::store
