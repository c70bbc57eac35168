// Census publication format (the public Git repository of §4.2.4).
//
// One CSV-style line per published prefix:
//   prefix,icmp,icmp_vps,tcp,tcp_vps,udp,udp_vps,gcd,gcd_sites,partial,locations
// where locations is a |-separated list of "City/CC" geolocations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "census/census.hpp"

namespace laces::census {

// Every rendering of the format goes through the two writers below, so a
// file rendered from a DailyCensus and one re-assembled from rows (the
// mesh's store::DeltaFollower) are the same bytes.

/// Column header line of the publication format.
std::string csv_header();

/// Header writer: appends a day's header lines to `out`, each ending in
/// '\n': "# LACeS census day N", on a degraded day "# degraded:
/// lost_sites=N canary_alarms=M", then csv_header().
void append_header(std::string& out, std::uint32_t day, bool degraded,
                   std::uint16_t lost_sites, std::uint32_t canary_alarms);

/// Row writer: appends one prefix's census line to `out`, without the
/// newline.
void append_row(std::string& out, const PrefixRecord& record);

/// One prefix's census line.
std::string to_csv(const PrefixRecord& record);

/// Writes the full census (published prefixes only, sorted) to `out`.
void write_census(std::ostream& out, const DailyCensus& census);

/// Renders the whole census to a string: the bytes write_census writes.
std::string render_census(const DailyCensus& census);

/// Parses a published census back (the consumer side of the public
/// repository: longitudinal tooling reads prior days' files). Numbers are
/// plain decimal digits that fit their field; anything else (a sign,
/// wrap-around, trailing text, an IPv6 length above 128) is malformed.
/// Throws std::runtime_error naming the 1-based line on malformed input.
DailyCensus parse_census(std::istream& in);

}  // namespace laces::census
