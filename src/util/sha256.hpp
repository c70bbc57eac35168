// Self-contained SHA-256 and HMAC-SHA256.
//
// Used to authenticate every control-channel, serve and mesh frame (paper
// R8: "secure inter-component communication") and for the archive's
// SHA-256 footers. No external crypto dependency: blocks are compressed
// with the x86 SHA extensions where CPUID reports them, else in portable
// C++ (util/sha256_kernel.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace laces {

/// 32-byte SHA-256 digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

namespace sha256_detail {
/// Compresses `count` consecutive 64-byte blocks into `state`.
using Compress = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count);
struct Access;  // util/sha256_kernel.hpp
}  // namespace sha256_detail

/// The block-compression kernel this process hashes with: "x86-sha" when
/// CPUID reports the x86 SHA extensions, else "portable". Chosen once per
/// process from CPUID alone; every digest and MAC is the same either way.
std::string_view sha256_backend();

/// Incremental SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  Sha256();

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s) {
    update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size()));
  }
  /// Finalizes and returns the digest; the object must be reset() before
  /// further use.
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest hash(std::span<const std::uint8_t> data);
  static Sha256Digest hash(std::string_view s);

 private:
  friend struct sha256_detail::Access;
  explicit Sha256(sha256_detail::Compress compress) : compress_(compress) {
    reset();
  }

  sha256_detail::Compress compress_;
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// HMAC-SHA256 (RFC 2104) over `data` with `key`.
Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data);
Sha256Digest hmac_sha256(std::string_view key, std::string_view data);

/// Constant-time digest comparison.
bool digest_equal(const Sha256Digest& a, const Sha256Digest& b);

/// Lowercase hex rendering of a digest.
std::string to_hex(const Sha256Digest& d);

}  // namespace laces
