// The wire codec's decode rules (net/codec.hpp), checked through each
// plane's public entry points on every alternative of core::Message,
// serve::Request, serve::Response and mesh::MeshMessage (one sample each,
// from wire_samples.hpp). Every check is generic over the variant type and
// runs once per plane. The byte positions of list counts, bools and enum
// bytes come from the Writer's marks, so a message added to any variant
// is covered without touching this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "util/rng.hpp"
#include "wire_samples.hpp"

namespace laces::wire_samples {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// A plane's codec entry points and the one exception its decoder throws.
template <class V>
struct Plane;
template <>
struct Plane<core::Message> {
  static constexpr const char* kName = "control";
  using Error = DecodeError;
  static constexpr auto encode = core::encode_message;
  static constexpr auto decode = core::decode_message;
};
template <>
struct Plane<serve::Request> {
  static constexpr const char* kName = "serve request";
  using Error = serve::ProtocolError;
  static constexpr auto encode = serve::encode_request;
  static constexpr auto decode = serve::decode_request;
};
template <>
struct Plane<serve::Response> {
  static constexpr const char* kName = "serve response";
  using Error = serve::ProtocolError;
  static constexpr auto encode = serve::encode_response;
  static constexpr auto decode = serve::decode_response;
};
template <>
struct Plane<mesh::MeshMessage> {
  static constexpr const char* kName = "mesh";
  using Error = serve::ProtocolError;
  static constexpr auto encode = mesh::encode_mesh;
  static constexpr auto decode = mesh::decode_mesh;
};

/// Runs `check(v)` with a default `V` of each of the four variants.
template <class Check>
void for_each_plane(Check check) {
  check(core::Message{});
  check(serve::Request{});
  check(serve::Response{});
  check(mesh::MeshMessage{});
}

/// A sample with its encoding and the marks of its validated bytes.
template <class V>
struct Case {
  V message;
  Bytes bytes;
  std::vector<codec::Mark> marks;
};

template <class V>
std::vector<Case<V>> cases() {
  std::vector<Case<V>> out;
  for (const V& m : samples<V>()) {
    Case<V> c{m, Plane<V>::encode(m), {}};
    EXPECT_EQ(codec::encode(m, &c.marks), c.bytes);
    out.push_back(std::move(c));
  }
  return out;
}

template <class V>
void expect_rejected(const Bytes& bytes, const Case<V>& c,
                     const std::string& what) {
  EXPECT_THROW(Plane<V>::decode(bytes), typename Plane<V>::Error)
      << Plane<V>::kName << " alternative " << c.message.index() << ": "
      << what;
}

/// Applies `mutate` at every mark of the given kinds, on every sample of
/// every plane; each result must be rejected.
void expect_marks_rejected(std::initializer_list<codec::Mark::Kind> kinds,
                           void (*mutate)(Bytes&, const codec::Mark&)) {
  for_each_plane([&](auto v) {
    for (const auto& c : cases<decltype(v)>()) {
      for (const codec::Mark& mark : c.marks) {
        if (std::find(kinds.begin(), kinds.end(), mark.kind) == kinds.end()) {
          continue;
        }
        Bytes bad = c.bytes;
        mutate(bad, mark);
        expect_rejected(bad, c, "mark at byte " + std::to_string(mark.offset));
      }
    }
  });
}

TEST(WireCodec, RoundTripsSamplesAndDefaults) {
  for_each_plane([](auto v) {
    using V = decltype(v);
    using P = Plane<V>;
    for (const auto& c : cases<V>()) {
      EXPECT_EQ(P::decode(c.bytes), c.message)
          << P::kName << " alternative " << c.message.index();
    }
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      for (const V& m : {V(std::in_place_index<I>)...}) {
        EXPECT_EQ(P::decode(P::encode(m)), m)
            << P::kName << " default " << m.index();
      }
    }(std::make_index_sequence<std::variant_size_v<V>>{});
  });
}

TEST(WireCodec, RejectsEveryTruncation) {
  for_each_plane([](auto v) {
    for (const auto& c : cases<decltype(v)>()) {
      for (std::size_t n = 0; n < c.bytes.size(); ++n) {
        const Bytes cut(c.bytes.begin(),
                        c.bytes.begin() + static_cast<long>(n));
        expect_rejected(cut, c, "cut at " + std::to_string(n));
      }
    }
  });
}

TEST(WireCodec, RejectsOneTrailingByte) {
  for_each_plane([](auto v) {
    for (const auto& c : cases<decltype(v)>()) {
      Bytes padded = c.bytes;
      padded.push_back(0);
      expect_rejected(padded, c, "trailing byte");
    }
  });
}

TEST(WireCodec, RejectsEveryListCountAtItsMaximum) {
  expect_marks_rejected(
      {codec::Mark::kCount32, codec::Mark::kCountVarint},
      [](Bytes& bytes, const codec::Mark& mark) {
        const auto at = bytes.begin() + static_cast<long>(mark.offset);
        if (mark.kind == codec::Mark::kCount32) {
          std::fill(at, at + 4, 0xff);
          return;
        }
        auto end = at;
        while (*end & 0x80) ++end;
        // The 10-byte LEB128 encoding of 2^64 - 1.
        const Bytes max = {0xff, 0xff, 0xff, 0xff, 0xff,
                           0xff, 0xff, 0xff, 0xff, 0x01};
        bytes.insert(bytes.erase(at, end + 1), max.begin(), max.end());
      });
}

TEST(WireCodec, RejectsABoolByteOfTwo) {
  expect_marks_rejected(
      {codec::Mark::kBool},
      [](Bytes& bytes, const codec::Mark& mark) { bytes[mark.offset] = 2; });
}

TEST(WireCodec, RejectsOutOfRangeTagAndEnumBytes) {
  expect_marks_rejected({codec::Mark::kByte},
                        [](Bytes& bytes, const codec::Mark& mark) {
                          bytes[mark.offset] = mark.invalid;
                        });
}

TEST(WireCodec, MutatedBytesOnlyEverThrowThePlaneError) {
  for_each_plane([](auto v) {
    using P = Plane<decltype(v)>;
    Rng rng(0xc0dec);
    for (const auto& c : cases<decltype(v)>()) {
      for (int round = 0; round < 2000; ++round) {
        Bytes bytes = c.bytes;
        const int edits = 1 + static_cast<int>(rng.index(3));
        for (int e = 0; e < edits && !bytes.empty(); ++e) {
          const std::size_t at = rng.index(bytes.size());
          switch (rng.index(5)) {
            case 0:
              bytes[at] ^= static_cast<std::uint8_t>(1u << rng.index(8));
              break;
            case 1:
              bytes[at] = static_cast<std::uint8_t>(rng());
              break;
            case 2:
              bytes.resize(at);
              break;
            case 3:
              bytes.insert(bytes.begin() + static_cast<long>(at),
                           static_cast<std::uint8_t>(rng()));
              break;
            default:
              bytes.assign(rng.index(64), 0);
              for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
          }
        }
        try {
          (void)P::decode(bytes);
        } catch (const typename P::Error&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << P::kName << " alternative " << c.message.index()
                        << " round " << round << " threw " << e.what();
        }
      }
    }
  });
}

}  // namespace
}  // namespace laces::wire_samples
