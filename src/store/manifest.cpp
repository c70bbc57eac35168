#include "store/manifest.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

namespace laces::store {

const ManifestEntry* Manifest::find(std::uint32_t day) const {
  for (const auto& e : entries) {
    if (e.day == day) return &e;
  }
  return nullptr;
}

std::uint32_t Manifest::last_day() const {
  std::uint32_t last = 0;
  for (const auto& e : entries) last = std::max(last, e.day);
  return last;
}

std::uint64_t Manifest::total_segment_bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.segment_bytes;
  return total;
}

std::uint64_t Manifest::total_csv_bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.csv_bytes;
  return total;
}

std::string Manifest::render() const {
  std::ostringstream out;
  out << "# laces-store manifest v" << kFormatVersion << "\n";
  for (const auto& e : entries) {
    out << "day=" << e.day << " degraded=" << (e.degraded ? 1 : 0)
        << " records=" << e.record_count << " anycast=" << e.anycast_detected
        << " gcd=" << e.gcd_confirmed << " segment_bytes=" << e.segment_bytes
        << " csv_bytes=" << e.csv_bytes << " file=" << e.file
        << " sha256=" << e.digest_hex << "\n";
  }
  return out.str();
}

void Manifest::save(const std::filesystem::path& path) const {
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw ArchiveError("manifest: cannot write " + tmp);
    out << render();
    if (!out) throw ArchiveError("manifest: write failed for " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

namespace {

/// Parses "key=value" out of a manifest token; throws naming the line.
std::string field(const std::string& token, const char* key,
                  std::size_t line_number) {
  const std::string want = std::string(key) + "=";
  if (token.rfind(want, 0) != 0) {
    throw ArchiveError("manifest line " + std::to_string(line_number) +
                       ": expected " + want + "..., got '" + token + "'");
  }
  return token.substr(want.size());
}

/// Parses a decimal field: digits only (no sign, space or base prefix)
/// whose value fits T; anything else throws naming the line.
template <typename T>
T number_field(const std::string& token, const char* key,
               std::size_t line_number) {
  const std::string value = field(token, key, line_number);
  T parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || stop != end) {
    throw ArchiveError("manifest line " + std::to_string(line_number) +
                       ": bad " + key + ": '" + value + "'");
  }
  return parsed;
}

/// A segment digest: exactly 64 lowercase hex digits, as to_hex renders.
std::string digest_field(const std::string& token, std::size_t line_number) {
  std::string value = field(token, "sha256", line_number);
  const bool hex = std::all_of(value.begin(), value.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
  if (value.size() != 64 || !hex) {
    throw ArchiveError("manifest line " + std::to_string(line_number) +
                       ": bad sha256 (want 64 lowercase hex digits): '" +
                       value + "'");
  }
  return value;
}

}  // namespace

Manifest Manifest::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  Manifest manifest;
  if (!std::getline(in, line) ||
      line != "# laces-store manifest v" + std::to_string(kFormatVersion)) {
    throw ArchiveError("manifest line 1: bad or missing header: '" + line +
                       "'");
  }
  line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string t[9];
    for (auto& token : t) {
      if (!(tokens >> token)) {
        throw ArchiveError("manifest line " + std::to_string(line_number) +
                           ": too few fields");
      }
    }
    ManifestEntry e;
    e.day = number_field<std::uint32_t>(t[0], "day", line_number);
    e.degraded =
        number_field<std::uint64_t>(t[1], "degraded", line_number) != 0;
    e.record_count = number_field<std::uint32_t>(t[2], "records", line_number);
    e.anycast_detected =
        number_field<std::uint32_t>(t[3], "anycast", line_number);
    e.gcd_confirmed = number_field<std::uint32_t>(t[4], "gcd", line_number);
    e.segment_bytes =
        number_field<std::uint64_t>(t[5], "segment_bytes", line_number);
    e.csv_bytes = number_field<std::uint64_t>(t[6], "csv_bytes", line_number);
    e.file = field(t[7], "file", line_number);
    e.digest_hex = digest_field(t[8], line_number);
    if (manifest.find(e.day) != nullptr) {
      throw ArchiveError("manifest line " + std::to_string(line_number) +
                         ": duplicate day " + std::to_string(e.day));
    }
    manifest.entries.push_back(std::move(e));
  }
  return manifest;
}

Manifest Manifest::load(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ArchiveError("manifest: cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

}  // namespace laces::store
