// The SHA-256 block-compression kernels behind util/sha256.hpp. Private to
// util/sha256.cpp and its tests: callers hash through Sha256 and
// hmac_sha256, which use selected_kernel().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/sha256.hpp"

namespace laces::sha256_detail {

/// FIPS 180-4 compression in portable C++: the fallback on CPUs without
/// the SHA extensions and the reference the accelerated kernel is tested
/// against.
void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count);

/// The x86 SHA-extension kernel, or nullptr when the build is not x86 or
/// CPUID reports no SHA extensions or no SSE4.1.
Compress x86_sha_kernel();

/// The kernel every Sha256 uses: x86_sha_kernel() when present, else
/// compress_portable. Chosen on first call (thread-safe, and usable from
/// static initialisers) and fixed for the life of the process.
Compress selected_kernel();

/// Hashing on a named kernel, so tests can run both on the same input.
struct Access {
  static Sha256 hasher(Compress compress) { return Sha256(compress); }
};
Sha256Digest hmac(Compress compress, std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> data);

}  // namespace laces::sha256_detail
