#include "census/output.hpp"

#include <charconv>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace laces::census {
namespace {

constexpr std::string_view kColumns =
    "prefix,icmp,icmp_vps,tcp,tcp_vps,udp,udp_vps,gcd,gcd_sites,partial,"
    "locations";

void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

void append_protocol(std::string& out, const PrefixRecord& rec,
                     net::Protocol protocol) {
  const auto it = rec.anycast_based.find(protocol);
  if (it == rec.anycast_based.end()) {
    out += ",n/a,0";
    return;
  }
  out += ',';
  out += core::to_string(it->second.verdict);
  out += ',';
  append_number(out, it->second.vp_count);
}

}  // namespace

std::string csv_header() { return std::string(kColumns); }

void append_header(std::string& out, std::uint32_t day, bool degraded,
                   std::uint16_t lost_sites, std::uint32_t canary_alarms) {
  out += "# LACeS census day ";
  append_number(out, day);
  out += '\n';
  if (degraded) {
    // Degraded days publish their (partial) records but carry the marker so
    // downstream longitudinal analysis can exclude them.
    out += "# degraded: lost_sites=";
    append_number(out, lost_sites);
    out += " canary_alarms=";
    append_number(out, canary_alarms);
    out += '\n';
  }
  out += kColumns;
  out += '\n';
}

void append_row(std::string& out, const PrefixRecord& rec) {
  out += rec.prefix.to_string();
  append_protocol(out, rec, net::Protocol::kIcmp);
  append_protocol(out, rec, net::Protocol::kTcp);
  append_protocol(out, rec, net::Protocol::kUdpDns);
  out += ',';
  out += rec.gcd_verdict ? gcd::to_string(*rec.gcd_verdict) : "n/a";
  out += ',';
  append_number(out, rec.gcd_site_count);
  out += rec.partial_anycast ? ",partial," : ",full,";
  for (std::size_t i = 0; i < rec.gcd_locations.size(); ++i) {
    if (i > 0) out += '|';
    const auto& city = geo::city(rec.gcd_locations[i]);
    out += city.name;
    out += '/';
    out += city.country;
  }
}

std::string to_csv(const PrefixRecord& rec) {
  std::string line;
  append_row(line, rec);
  return line;
}

void write_census(std::ostream& out, const DailyCensus& census) {
  const std::string text = render_census(census);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string render_census(const DailyCensus& census) {
  std::string out;
  append_header(out, census.day, census.degraded, census.lost_sites,
                census.canary_alarms);
  for (const auto& prefix : census.published_prefixes()) {
    append_row(out, *census.find(prefix));
    out += '\n';
  }
  return out;
}

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const auto pos = line.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Errors name the 1-based line so a malformed multi-thousand-line
/// publication file points straight at the offending record.
[[noreturn]] void fail_at(std::size_t line_number, const std::string& what) {
  throw std::runtime_error("census file line " +
                           std::to_string(line_number) + ": " + what);
}

/// Reads a whole field as a decimal number of its field's own type `T`:
/// digits only, so a sign, a value that does not fit `T` or trailing text
/// is an error rather than a wrapped or truncated number.
template <class T>
T parse_number(std::string_view s, std::size_t line_number, const char* what) {
  T value = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || stop != end) {
    fail_at(line_number,
            std::string("bad ") + what + ": '" + std::string(s) + "'");
  }
  return value;
}

/// The value of `key` in a marker line of space-separated key=value
/// fields, or nullopt when the line lacks the key.
std::optional<std::string_view> marker_field(std::string_view line,
                                             std::string_view key) {
  const auto pos = line.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  const auto value = line.substr(pos + key.size());
  return value.substr(0, value.find(' '));
}

core::Verdict parse_verdict(const std::string& s, std::size_t line_number) {
  if (s == "unicast") return core::Verdict::kUnicast;
  if (s == "anycast") return core::Verdict::kAnycast;
  if (s == "unresponsive") return core::Verdict::kUnresponsive;
  fail_at(line_number, "bad anycast-based verdict: '" + s + "'");
}

void parse_protocol_fields(PrefixRecord& rec, net::Protocol protocol,
                           const std::string& verdict, const std::string& vps,
                           std::size_t line_number) {
  if (verdict == "n/a") return;
  rec.anycast_based[protocol] = ProtocolObservation{
      parse_verdict(verdict, line_number),
      parse_number<std::uint32_t>(vps, line_number, "VP count")};
}

}  // namespace

DailyCensus parse_census(std::istream& in) {
  DailyCensus census;
  std::string line;
  std::size_t line_number = 0;
  const auto next_line = [&]() {
    ++line_number;
    return static_cast<bool>(std::getline(in, line));
  };
  // Comment line: "# LACeS census day N".
  if (!next_line() || line.rfind("# LACeS census day ", 0) != 0) {
    fail_at(line_number, "missing day header");
  }
  census.day = parse_number<std::uint32_t>(
      std::string_view(line).substr(19), line_number, "day number");
  if (!next_line()) fail_at(line_number, "missing column header");
  // Optional degraded-day marker: "# degraded: lost_sites=N canary_alarms=M".
  if (line.rfind("# degraded: ", 0) == 0) {
    census.degraded = true;
    if (const auto lost = marker_field(line, "lost_sites=")) {
      census.lost_sites =
          parse_number<std::uint16_t>(*lost, line_number, "lost_sites");
    }
    if (const auto alarms = marker_field(line, "canary_alarms=")) {
      census.canary_alarms =
          parse_number<std::uint32_t>(*alarms, line_number, "canary_alarms");
    }
    if (!next_line()) fail_at(line_number, "missing column header");
  }
  if (line != csv_header()) fail_at(line_number, "bad column header");
  while (next_line()) {
    if (line.empty()) continue;
    const auto fields = split(line, ',');
    if (fields.size() != 11) {
      fail_at(line_number, "bad field count (want 11, got " +
                               std::to_string(fields.size()) + "): " + line);
    }
    PrefixRecord rec;
    if (const auto p4 = net::Ipv4Prefix::parse(fields[0])) {
      rec.prefix = *p4;
    } else {
      // IPv6 prefix: "<addr>/48".
      const auto slash = fields[0].find('/');
      const auto addr = net::Ipv6Address::parse(fields[0].substr(0, slash));
      if (!addr || slash == std::string::npos) {
        fail_at(line_number, "bad prefix: '" + fields[0] + "'");
      }
      const auto length_text = std::string_view(fields[0]).substr(slash + 1);
      const auto length =
          parse_number<std::uint8_t>(length_text, line_number, "prefix length");
      if (length > 128) {
        fail_at(line_number,
                "bad prefix length: '" + std::string(length_text) + "'");
      }
      rec.prefix = net::Ipv6Prefix(*addr, length);
    }
    parse_protocol_fields(rec, net::Protocol::kIcmp, fields[1], fields[2],
                          line_number);
    parse_protocol_fields(rec, net::Protocol::kTcp, fields[3], fields[4],
                          line_number);
    parse_protocol_fields(rec, net::Protocol::kUdpDns, fields[5], fields[6],
                          line_number);
    if (fields[7] != "n/a") {
      if (fields[7] == "anycast") {
        rec.gcd_verdict = gcd::GcdVerdict::kAnycast;
      } else if (fields[7] == "unicast") {
        rec.gcd_verdict = gcd::GcdVerdict::kUnicast;
      } else if (fields[7] == "unresponsive") {
        rec.gcd_verdict = gcd::GcdVerdict::kUnresponsive;
      } else {
        fail_at(line_number, "bad GCD verdict: '" + fields[7] + "'");
      }
    }
    rec.gcd_site_count =
        parse_number<std::uint32_t>(fields[8], line_number, "gcd_sites");
    if (fields[9] != "partial" && fields[9] != "full") {
      fail_at(line_number, "bad partial flag: '" + fields[9] + "'");
    }
    rec.partial_anycast = fields[9] == "partial";
    if (!fields[10].empty()) {
      for (const auto& loc : split(fields[10], '|')) {
        const auto slash = loc.find('/');
        const auto city = geo::find_city(loc.substr(0, slash));
        if (city) rec.gcd_locations.push_back(*city);
      }
    }
    if (!census.records.emplace(rec.prefix, std::move(rec)).second) {
      fail_at(line_number, "duplicate prefix: " + fields[0]);
    }
  }
  return census;
}

}  // namespace laces::census
