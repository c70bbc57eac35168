// IP addresses and prefixes.
//
// The census operates at /24 (IPv4) and /48 (IPv6) granularity — the
// smallest prefix sizes commonly propagated by BGP (paper §4.2.3).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace laces::net {

enum class IpVersion : std::uint8_t { kV4 = 4, kV6 = 6 };

inline constexpr std::array<IpVersion, 2> kAllIpVersions = {IpVersion::kV4,
                                                            IpVersion::kV6};

std::string_view to_string(IpVersion v);

/// IPv4 address as host-order 32-bit value.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  constexpr std::uint32_t value() const { return value_; }
  std::string to_string() const;
  static std::optional<Ipv4Address> parse(std::string_view s);

  constexpr auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t value_ = 0;
};

/// IPv6 address as two host-order 64-bit halves.
class Ipv6Address {
 public:
  constexpr Ipv6Address() = default;
  constexpr Ipv6Address(std::uint64_t hi, std::uint64_t lo)
      : hi_(hi), lo_(lo) {}

  constexpr std::uint64_t hi() const { return hi_; }
  constexpr std::uint64_t lo() const { return lo_; }
  std::array<std::uint8_t, 16> bytes() const;
  static Ipv6Address from_bytes(const std::array<std::uint8_t, 16>& b);
  /// Full (non-compressed) colon-hex rendering.
  std::string to_string() const;
  static std::optional<Ipv6Address> parse(std::string_view s);

  constexpr auto operator<=>(const Ipv6Address&) const = default;

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

/// Either address family.
class IpAddress {
 public:
  constexpr IpAddress() : v_(Ipv4Address{}) {}
  constexpr IpAddress(Ipv4Address a) : v_(a) {}  // NOLINT: implicit by design
  constexpr IpAddress(Ipv6Address a) : v_(a) {}  // NOLINT: implicit by design

  IpVersion version() const {
    return std::holds_alternative<Ipv4Address>(v_) ? IpVersion::kV4
                                                   : IpVersion::kV6;
  }
  bool is_v4() const { return version() == IpVersion::kV4; }
  const Ipv4Address& v4() const;
  const Ipv6Address& v6() const;
  std::string to_string() const;

  friend auto operator<=>(const IpAddress&, const IpAddress&) = default;

 private:
  std::variant<Ipv4Address, Ipv6Address> v_;
};

/// IPv4 prefix (address with the host bits zeroed + length).
class Ipv4Prefix {
 public:
  constexpr Ipv4Prefix() = default;
  /// Canonicalizes: host bits below `length` are cleared.
  Ipv4Prefix(Ipv4Address addr, std::uint8_t length);

  Ipv4Address address() const { return addr_; }
  std::uint8_t length() const { return len_; }
  bool contains(Ipv4Address a) const;
  bool contains(const Ipv4Prefix& other) const;
  std::uint64_t size() const { return 1ULL << (32 - len_); }
  /// Number of /24 sub-prefixes (1 for a /24 or longer).
  std::uint64_t count_slash24() const;
  std::string to_string() const;
  static std::optional<Ipv4Prefix> parse(std::string_view s);

  /// The /24 containing `a`.
  static Ipv4Prefix slash24_of(Ipv4Address a);

  friend auto operator<=>(const Ipv4Prefix&, const Ipv4Prefix&) = default;

 private:
  Ipv4Address addr_;
  std::uint8_t len_ = 0;
};

/// IPv6 prefix; census granularity is /48.
class Ipv6Prefix {
 public:
  constexpr Ipv6Prefix() = default;
  Ipv6Prefix(Ipv6Address addr, std::uint8_t length);

  Ipv6Address address() const { return addr_; }
  std::uint8_t length() const { return len_; }
  bool contains(Ipv6Address a) const;
  std::string to_string() const;

  /// The /48 containing `a`.
  static Ipv6Prefix slash48_of(Ipv6Address a);

  friend auto operator<=>(const Ipv6Prefix&, const Ipv6Prefix&) = default;

 private:
  Ipv6Address addr_;
  std::uint8_t len_ = 0;
};

/// Census-granularity prefix of either family (/24 or /48).
class Prefix {
 public:
  constexpr Prefix() : v_(Ipv4Prefix{}) {}
  Prefix(Ipv4Prefix p) : v_(p) {}  // NOLINT: implicit by design
  Prefix(Ipv6Prefix p) : v_(p) {}  // NOLINT: implicit by design

  IpVersion version() const {
    return std::holds_alternative<Ipv4Prefix>(v_) ? IpVersion::kV4
                                                  : IpVersion::kV6;
  }
  const Ipv4Prefix& v4() const;
  const Ipv6Prefix& v6() const;
  bool contains(const IpAddress& a) const;
  std::string to_string() const;

  /// The census prefix (/24 or /48) containing `a`.
  static Prefix of(const IpAddress& a);

  friend auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  std::variant<Ipv4Prefix, Ipv6Prefix> v_;
};

/// Deterministic 64-bit hash for use as unordered_map key.
std::uint64_t hash_value(const IpAddress& a);
std::uint64_t hash_value(const Prefix& p);

struct IpAddressHash {
  std::size_t operator()(const IpAddress& a) const {
    return static_cast<std::size_t>(hash_value(a));
  }
};
struct PrefixHash {
  std::size_t operator()(const Prefix& p) const {
    return static_cast<std::size_t>(hash_value(p));
  }
};

}  // namespace laces::net
