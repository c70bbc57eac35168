#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/sha256_kernel.hpp"

namespace laces {
namespace {

namespace sd = sha256_detail;

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Hashes and HMACs of a fixed set of lengths (empty, padding boundaries,
/// multi-block; HMAC keys up to 130 bytes), in a fixed order.
std::vector<Sha256Digest> hash_and_mac_workload() {
  std::vector<std::uint8_t> data(70000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  const std::span<const std::uint8_t> all(data);
  std::vector<Sha256Digest> out;
  for (const std::size_t len : {0u, 1u, 55u, 64u, 65u, 300u, 4096u, 70000u}) {
    out.push_back(Sha256::hash(all.first(len)));
    out.push_back(hmac_sha256(all.first(len % 131), all.first(len)));
  }
  return out;
}

// First in the file so that, when the binary runs whole, the threads also
// race on the once-per-process kernel choice; ctest runs each test in its
// own process, where that holds anyway.
TEST(Sha256Concurrency, EightThreadsMatchSingleThread) {
  constexpr int kThreads = 8;
  std::vector<std::vector<Sha256Digest>> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, &start, t] {
      start.arrive_and_wait();
      results[t] = hash_and_mac_workload();
    });
  }
  for (auto& thread : threads) thread.join();
  const auto expected = hash_and_mac_workload();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    // One-shot and byte-at-a-time must agree at padding boundaries.
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len " << len;
  }
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const std::string key(20, '\x0b');
  EXPECT_EQ(to_hex(hmac_sha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const std::string key(20, '\xaa');
  const std::string data(50, '\xdd');
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::string key(131, '\xaa');
  EXPECT_EQ(to_hex(hmac_sha256(key, "Test Using Larger Than Block-Size Key - "
                                    "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDisagree) {
  EXPECT_NE(hmac_sha256("key-a", "payload"), hmac_sha256("key-b", "payload"));
}

TEST(DigestEqual, EqualAndUnequal) {
  const auto a = Sha256::hash("x");
  auto b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
  b[31] ^= 1;
  b[0] ^= 0x80;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(ToHex, Formatting) {
  Sha256Digest d{};
  d[0] = 0x01;
  d[1] = 0xab;
  d[31] = 0xff;
  const auto hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 4), "01ab");
  EXPECT_EQ(hex.substr(62, 2), "ff");
}

// --- The accelerated kernel against the portable reference ---

#define SKIP_WITHOUT_X86_SHA()                                          \
  if (sd::x86_sha_kernel() == nullptr) {                                \
    GTEST_SKIP() << "no x86 SHA-extension kernel here (not an x86 "    \
                    "build, or CPUID reports no SHA or SSE4.1): only "  \
                    "the portable kernel runs";                         \
  }

Sha256Digest hash_on(sd::Compress kernel, std::span<const std::uint8_t> data) {
  Sha256 h = sd::Access::hasher(kernel);
  h.update(data);
  return h.finish();
}

TEST(Sha256Kernel, BackendNamesTheSelectedKernel) {
  if (sd::x86_sha_kernel() != nullptr) {
    EXPECT_EQ(sd::selected_kernel(), sd::x86_sha_kernel());
    EXPECT_EQ(sha256_backend(), "x86-sha");
  } else {
    EXPECT_EQ(sd::selected_kernel(), &sd::compress_portable);
    EXPECT_EQ(sha256_backend(), "portable");
  }
}

TEST(Sha256Kernel, MatchesPortableOnEveryLengthTo1100) {
  SKIP_WITHOUT_X86_SHA();
  Rng rng(1100);
  std::vector<std::uint8_t> data(1100);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const auto message = std::span<const std::uint8_t>(data).first(len);
    EXPECT_EQ(hash_on(sd::x86_sha_kernel(), message),
              hash_on(sd::compress_portable, message))
        << "length " << len;
  }
}

TEST(Sha256Kernel, MatchesPortableAtRandomSplitPoints) {
  SKIP_WITHOUT_X86_SHA();
  Rng rng(256);
  for (int buffer = 0; buffer < 64; ++buffer) {
    std::vector<std::uint8_t> data(rng.uniform_int(0, 256 * 1024));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    std::vector<std::size_t> cuts(rng.uniform_int(0, 16));
    for (auto& cut : cuts) cut = rng.uniform_int(0, data.size());
    cuts.push_back(data.size());
    std::sort(cuts.begin(), cuts.end());

    Sha256 split = sd::Access::hasher(sd::x86_sha_kernel());
    std::size_t pos = 0;
    for (const std::size_t cut : cuts) {
      split.update(std::span<const std::uint8_t>(data).subspan(pos, cut - pos));
      pos = cut;
    }
    EXPECT_EQ(split.finish(), hash_on(sd::compress_portable, data))
        << "buffer " << buffer << " (" << data.size() << " bytes, "
        << cuts.size() << " pieces)";
  }
}

/// NIST FIPS 180-4 and RFC 4231 vectors on one kernel.
void expect_known_vectors(sd::Compress kernel) {
  EXPECT_EQ(to_hex(hash_on(kernel, bytes_of(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash_on(kernel, bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(hash_on(kernel, bytes_of("abcdbcdecdefdefgefghfghighijhijki"
                                            "jkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(
      to_hex(hash_on(kernel, bytes_of("abcdefghbcdefghicdefghijdefghijkefghijkl"
                                      "fghijklmghijklmnhijklmnoijklmnopjklmnopq"
                                      "klmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  const std::string million(1000000, 'a');
  EXPECT_EQ(to_hex(hash_on(kernel, bytes_of(million))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");

  const auto mac = [kernel](std::string_view key, std::string_view data) {
    return to_hex(sd::hmac(kernel, bytes_of(key), bytes_of(data)));
  };
  EXPECT_EQ(mac(std::string(20, '\x0b'), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(mac("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(mac(std::string(20, '\xaa'), std::string(50, '\xdd')),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  std::string case4_key;
  for (char c = 1; c <= 25; ++c) case4_key.push_back(c);
  EXPECT_EQ(mac(case4_key, std::string(50, '\xcd')),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
  EXPECT_EQ(mac(std::string(131, '\xaa'),
                "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(mac(std::string(131, '\xaa'),
                "This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Sha256Kernel, PortableMeetsKnownVectors) {
  expect_known_vectors(sd::compress_portable);
}

TEST(Sha256Kernel, X86ShaMeetsKnownVectors) {
  SKIP_WITHOUT_X86_SHA();
  expect_known_vectors(sd::x86_sha_kernel());
}

}  // namespace
}  // namespace laces
