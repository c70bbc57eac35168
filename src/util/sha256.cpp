#include "util/sha256.hpp"

#include <cstring>

#include "util/sha256_kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define LACES_SHA256_X86 1
#endif

namespace laces {
namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(LACES_SHA256_X86)

bool cpu_has_sha_extensions() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid(1, a, b, c, d);
  const bool sse41 = (c & bit_SSE4_1) != 0;
  __cpuid_count(7, 0, a, b, c, d);
  return sse41 && (b & bit_SHA) != 0;
}

// Two rounds per sha256rnds2, four per group. state0 holds (A,B,E,F),
// state1 (C,D,G,H); each group's message words are scheduled four groups
// ahead with sha256msg1/msg2 (Intel's SHA extensions reference layout).
__attribute__((target("sha,sse4.1"))) void compress_x86_sha(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i state0 = _mm_alignr_epi8(cdab, efgh, 8);     // ABEF
  __m128i state1 = _mm_blend_epi16(efgh, cdab, 0xF0);  // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = state0;
    const __m128i cdgh_in = state1;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i wk = _mm_add_epi32(
          msg[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g < 12) {
        // W[4g+16..19] from W[4g..4g+15]; msg[g % 4] is free once wk is.
        const __m128i w_minus_7 =
            _mm_alignr_epi8(msg[(g + 3) % 4], msg[(g + 2) % 4], 4);
        msg[g % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(msg[g % 4], msg[(g + 1) % 4]),
                          w_minus_7),
            msg[(g + 3) % 4]);
      }
      state0 = _mm_sha256rnds2_epu32(state0, state1,
                                     _mm_shuffle_epi32(wk, 0x0E));
    }
    state0 = _mm_add_epi32(state0, abef_in);
    state1 = _mm_add_epi32(state1, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(state0, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(state1, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#endif  // LACES_SHA256_X86

}  // namespace

namespace sha256_detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{blocks[4 * i]} << 24) |
             (std::uint32_t{blocks[4 * i + 1]} << 16) |
             (std::uint32_t{blocks[4 * i + 2]} << 8) |
             std::uint32_t{blocks[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Compress x86_sha_kernel() {
#if defined(LACES_SHA256_X86)
  static const Compress kernel =
      cpu_has_sha_extensions() ? compress_x86_sha : nullptr;
  return kernel;
#else
  return nullptr;
#endif
}

Compress selected_kernel() {
  static const Compress kernel =
      x86_sha_kernel() != nullptr ? x86_sha_kernel() : compress_portable;
  return kernel;
}

}  // namespace sha256_detail

std::string_view sha256_backend() {
  return sha256_detail::selected_kernel() == sha256_detail::compress_portable
             ? "portable"
             : "x86-sha";
}

Sha256::Sha256() : Sha256(sha256_detail::selected_kernel()) {}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t pos = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos = take;
    if (buffered_ == 64) {
      compress_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - pos) / 64; blocks > 0) {
    compress_(state_.data(), data.data() + pos, blocks);
    pos += 64 * blocks;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Sha256Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_start = 0x80;
  update(std::span(&pad_start, 1));
  static constexpr std::uint8_t kZero[64] = {};
  while (buffered_ != 56) {
    const std::size_t need = buffered_ < 56 ? 56 - buffered_ : 64 - buffered_;
    update(std::span(kZero, need));
  }
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  update(std::span(len_be, 8));

  Sha256Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finish();
}

Sha256Digest sha256_detail::hmac(Compress compress,
                                 std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    Sha256 key_hash = Access::hasher(compress);
    key_hash.update(key);
    const Sha256Digest kd = key_hash.finish();
    std::memcpy(k_block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  Sha256 inner = Access::hasher(compress);
  inner.update(ipad);
  inner.update(data);
  const Sha256Digest inner_digest = inner.finish();

  Sha256 outer = Access::hasher(compress);
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> data) {
  return sha256_detail::hmac(sha256_detail::selected_kernel(), key, data);
}

Sha256Digest hmac_sha256(std::string_view key, std::string_view data) {
  return hmac_sha256(
      std::span(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size()));
}

bool digest_equal(const Sha256Digest& a, const Sha256Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

std::string to_hex(const Sha256Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (auto b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace laces
