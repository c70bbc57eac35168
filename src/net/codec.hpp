// The one wire codec of the framed message planes: control (core::Message),
// serve (serve::Request / serve::Response) and mesh (mesh::MeshMessage).
//
// Each message lists its fields once, in wire order, in a free function
// found by argument-dependent lookup:
//
//   void fields(auto& io, codec::Is<ChunkAck> auto& m) {
//     io(m.measurement, m.worker, m.next_seq);
//   }
//
// encode() walks it with a Writer (the message is const), decode() with a
// Reader (the message is filled in), so an encoder and its decoder cannot
// drift apart. encoded_size() walks it with a Writer over a ByteCounter,
// which stores nothing, so a frame writer can size its one buffer exactly.
// A field's C++ type picks its default encoding:
//
//   bool                  one byte, 0 or 1
//   u8/u16/u32/u64, i64   fixed width, big-endian
//   double                IEEE-754 bits as u64
//   SimTime, SimDuration  i64 nanoseconds
//   std::string, bytes    u32 length, then the raw bytes
//   net::IpAddress        family byte (4 or 6), then u32 or 2 x u64
//   net::Prefix           its address, then a length byte (<= 32 / 128)
//   std::optional<T>      presence bool, then T when present
//   std::vector<T>        varint count, then each element
//   std::variant<T...>    tag byte (variant index + 1), then the alternative
//   a struct              its own fields()
//
// and an adaptor picks another: varint(x), u32_list(v), one_of(x, allowed)
// for enum and code bytes, flags(b...) for bools packed into one byte.
// Two more adaptors only write: tagged<V>(m) writes message m exactly as
// variant V holding it would, without building the variant, and raw(bytes)
// writes bytes that are already encoded, such as a frame's payload.
//
// A message variant's tag comes first, so new messages append at the end
// of a variant and old tags keep their bytes. The decoder rejects an
// unknown tag, a bool byte above 1, a byte outside its one_of() set, flag
// bits beyond those declared, a varint too big for its field, an address
// family other than 4 or 6, a prefix length beyond its family, a list
// count larger than the bytes left, truncation, and trailing bytes.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/address.hpp"
#include "util/bytes.hpp"
#include "util/simtime.hpp"

namespace laces::codec {

/// `M` is `T` or `const T`: one fields() overload serves both walks.
template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

// --- adaptors: a non-default encoding for one field ---

/// LEB128 varint instead of fixed width.
template <class T>
struct Varint {
  T& value;
};
template <class T>
Varint<T> varint(T& value) {
  return {value};
}

/// A list with a u32 count instead of a varint count.
template <class V>
struct U32List {
  V& list;
};
template <class V>
U32List<V> u32_list(V& list) {
  return {list};
}

/// One byte that must equal (as a byte) one of `allowed`.
template <class T, class E, std::size_t N>
struct OneOf {
  T& value;
  const std::array<E, N>& allowed;
};
template <class T, class E, std::size_t N>
OneOf<T, E, N> one_of(T& value, const std::array<E, N>& allowed) {
  return {value, allowed};
}
template <class E, std::size_t N>
bool is_one_of(std::uint8_t byte, const std::array<E, N>& allowed) {
  return std::any_of(allowed.begin(), allowed.end(), [byte](E e) {
    return static_cast<std::uint8_t>(e) == byte;
  });
}

/// Up to seven bools packed into one byte, the first in bit 0.
template <class... B>
struct Flags {
  static_assert(sizeof...(B) < 8);
  std::tuple<B&...> bits;
};
template <class... B>
Flags<B...> flags(B&... bits) {
  return {{bits...}};
}

/// Message `m` written as variant `V` holding it would write it: the tag
/// byte, then m's fields.
template <class V, class T>
struct Tagged {
  const T& message;
};
template <class V, class T>
Tagged<V, T> tagged(const T& message) {
  return {message};
}

/// Index of alternative `T` in variant `V`.
template <class V, class T, std::size_t I = 0>
constexpr std::size_t alternative_index() {
  static_assert(I < std::variant_size_v<V>, "not an alternative of V");
  if constexpr (std::is_same_v<std::variant_alternative_t<I, V>, T>) {
    return I;
  } else {
    return alternative_index<V, T, I + 1>();
  }
}

/// Bytes that are already encoded, written as they are: no length, no tag.
struct Raw {
  std::span<const std::uint8_t> bytes;
};
inline Raw raw(std::span<const std::uint8_t> bytes) { return {bytes}; }

/// Counts the bytes a ByteWriter would append and stores none: the
/// sizing pass of a one-buffer write.
class ByteCounter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u16(std::uint16_t) { n_ += 2; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void varint(std::uint64_t v) {
    do {
      ++n_;
      v >>= 7;
    } while (v != 0);
  }
  void bytes(std::span<const std::uint8_t> data) { n_ += data.size(); }
  void str(std::string_view s) { n_ += 4 + s.size(); }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Where a Writer put a byte the decoder validates, so a test can corrupt
/// exactly that byte.
struct Mark {
  enum Kind : std::uint8_t {
    kBool,         // must be 0 or 1
    kByte,         // must be in a fixed set; `invalid` lies outside it
    kCount32,      // u32 list count or byte length
    kCountVarint,  // varint list count
  };
  Kind kind;
  std::size_t offset;
  std::uint8_t invalid = 0;
};

/// Writes fields to `Out`: a ByteWriter, or a ByteCounter for the sizing
/// pass, which is the same walk and so counts exactly what is written.
template <class Out>
class Writer {
 public:
  explicit Writer(Out& out, std::vector<Mark>* marks = nullptr)
      : w_(out), marks_(marks) {}

  template <class... F>
  void operator()(const F&... f) {
    (put(f), ...);
  }

 private:
  void mark(Mark::Kind kind, std::uint8_t invalid = 0) {
    if (marks_) marks_->push_back({kind, w_.size(), invalid});
  }

  void put(bool b) {
    mark(Mark::kBool);
    w_.u8(b ? 1 : 0);
  }
  void put(std::uint8_t v) { w_.u8(v); }
  void put(std::uint16_t v) { w_.u16(v); }
  void put(std::uint32_t v) { w_.u32(v); }
  void put(std::uint64_t v) { w_.u64(v); }
  void put(std::int64_t v) { w_.i64(v); }
  void put(double v) { w_.f64(v); }
  void put(SimTime t) { w_.i64(t.ns()); }
  void put(SimDuration d) { w_.i64(d.ns()); }
  void put(const std::string& s) {
    mark(Mark::kCount32);
    w_.str(s);
  }
  void put(const std::vector<std::uint8_t>& bytes) {
    mark(Mark::kCount32);
    w_.u32(static_cast<std::uint32_t>(bytes.size()));
    w_.bytes(bytes);
  }
  void put(const net::IpAddress& a) {
    if (a.is_v4()) {
      put(a.v4());
    } else {
      put(a.v6());
    }
  }
  void put(net::Ipv4Address a) {
    mark(Mark::kByte);
    w_.u8(4);
    w_.u32(a.value());
  }
  void put(net::Ipv6Address a) {
    mark(Mark::kByte);
    w_.u8(6);
    w_.u64(a.hi());
    w_.u64(a.lo());
  }
  void put(const net::Prefix& p) {
    if (p.version() == net::IpVersion::kV4) {
      put(p.v4().address());
      mark(Mark::kByte, 33);
      w_.u8(p.v4().length());
    } else {
      put(p.v6().address());
      mark(Mark::kByte, 129);
      w_.u8(p.v6().length());
    }
  }
  template <class T>
  void put(const std::optional<T>& o) {
    put(o.has_value());
    if (o) put(*o);
  }
  template <class T>
  void put(const std::vector<T>& list) {
    mark(Mark::kCountVarint);
    w_.varint(list.size());
    for (const auto& e : list) put(e);
  }
  template <class V>
  void put(U32List<V> f) {
    mark(Mark::kCount32);
    w_.u32(static_cast<std::uint32_t>(f.list.size()));
    for (const auto& e : f.list) put(e);
  }
  template <class T>
  void put(Varint<T> f) {
    w_.varint(f.value);
  }
  template <class T, class E, std::size_t N>
  void put(OneOf<T, E, N> f) {
    if (marks_) {
      std::uint8_t invalid = 0;
      while (is_one_of(invalid, f.allowed)) ++invalid;
      mark(Mark::kByte, invalid);
    }
    w_.u8(static_cast<std::uint8_t>(f.value));
  }
  template <class... B>
  void put(Flags<B...> f) {
    mark(Mark::kByte, 1u << sizeof...(B));
    std::uint8_t byte = 0;
    int bit = 0;
    std::apply([&](const auto&... b) { ((byte |= b << bit++), ...); }, f.bits);
    w_.u8(byte);
  }
  template <class V, class T>
  void put(Tagged<V, T> f) {
    mark(Mark::kByte, static_cast<std::uint8_t>(std::variant_size_v<V> + 1));
    w_.u8(static_cast<std::uint8_t>(alternative_index<V, T>() + 1));
    put(f.message);
  }
  template <class... T>
  void put(const std::variant<T...>& v) {
    std::visit([this](const auto& m) { put(tagged<std::variant<T...>>(m)); },
               v);
  }
  void put(Raw f) { w_.bytes(f.bytes); }
  template <class T>
    requires requires(Writer& io, const T& m) { fields(io, m); }
  void put(const T& m) {
    fields(*this, m);
  }

  Out& w_;
  std::vector<Mark>* marks_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : r_(bytes) {}

  template <class... F>
  void operator()(F&&... f) {
    (get(f), ...);
  }
  std::size_t remaining() const { return r_.remaining(); }

 private:
  void get(bool& b) {
    const std::uint8_t v = r_.u8();
    if (v > 1) throw DecodeError("bool byte " + std::to_string(v));
    b = v != 0;
  }
  void get(std::uint8_t& v) { v = r_.u8(); }
  void get(std::uint16_t& v) { v = r_.u16(); }
  void get(std::uint32_t& v) { v = r_.u32(); }
  void get(std::uint64_t& v) { v = r_.u64(); }
  void get(std::int64_t& v) { v = r_.i64(); }
  void get(double& v) { v = r_.f64(); }
  void get(SimTime& t) { t = SimTime(r_.i64()); }
  void get(SimDuration& d) { d = SimDuration(r_.i64()); }
  void get(std::string& s) { s = r_.str(); }
  void get(std::vector<std::uint8_t>& bytes) {
    const auto raw = r_.bytes(r_.u32());
    bytes.assign(raw.begin(), raw.end());
  }
  void get(net::IpAddress& a) {
    const std::uint8_t family = r_.u8();
    if (family == 4) {
      a = net::Ipv4Address(r_.u32());
    } else if (family == 6) {
      const std::uint64_t hi = r_.u64();
      a = net::Ipv6Address(hi, r_.u64());
    } else {
      throw DecodeError("address family " + std::to_string(family));
    }
  }
  void get(net::Prefix& p) {
    net::IpAddress a;
    get(a);
    const std::uint8_t length = r_.u8();
    if (length > (a.is_v4() ? 32 : 128)) {
      throw DecodeError("prefix length " + std::to_string(length));
    }
    if (a.is_v4()) {
      p = net::Ipv4Prefix(a.v4(), length);
    } else {
      p = net::Ipv6Prefix(a.v6(), length);
    }
  }
  template <class T>
  void get(std::optional<T>& o) {
    bool present = false;
    get(present);
    if (present) {
      get(o.emplace());
    } else {
      o.reset();
    }
  }
  template <class T>
  void get(std::vector<T>& list) {
    elements(list, r_.varint());
  }
  template <class V>
  void get(U32List<V> f) {
    elements(f.list, r_.u32());
  }
  template <class T>
  void get(Varint<T> f) {
    const std::uint64_t v = r_.varint();
    if (v > std::numeric_limits<T>::max()) {
      throw DecodeError("varint " + std::to_string(v) + " out of range");
    }
    f.value = static_cast<T>(v);
  }
  template <class T, class E, std::size_t N>
  void get(OneOf<T, E, N> f) {
    const std::uint8_t v = r_.u8();
    if (!is_one_of(v, f.allowed)) {
      throw DecodeError("byte " + std::to_string(v) + " names no value");
    }
    f.value = static_cast<T>(v);
  }
  template <class... B>
  void get(Flags<B...> f) {
    const std::uint8_t v = r_.u8();
    if (v >> sizeof...(B)) {
      throw DecodeError("unknown flag bits " + std::to_string(v));
    }
    int bit = 0;
    std::apply([&](auto&... b) { ((b = (v >> bit++) & 1), ...); }, f.bits);
  }
  template <class... T>
  void get(std::variant<T...>& v) {
    const std::uint8_t tag = r_.u8();
    const bool known = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return ((tag == I + 1 && (v.template emplace<I>(), true)) || ...);
    }(std::index_sequence_for<T...>{});
    if (!known) throw DecodeError("unknown tag " + std::to_string(tag));
    std::visit([this](auto& m) { get(m); }, v);
  }
  template <class T>
    requires requires(Reader& io, T& m) { fields(io, m); }
  void get(T& m) {
    fields(*this, m);
  }

  /// Every element takes at least one byte, so a count above the bytes
  /// left is rejected before anything is reserved.
  template <class T>
  void elements(std::vector<T>& list, std::uint64_t count) {
    if (count > r_.remaining()) {
      throw DecodeError("list count " + std::to_string(count) +
                        " exceeds the bytes left");
    }
    list.clear();
    list.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) get(list.emplace_back());
  }

  ByteReader r_;
};

/// Bytes the fields would take when written.
template <class... F>
std::size_t encoded_size(const F&... f) {
  ByteCounter count;
  Writer<ByteCounter> w(count);
  w(f...);
  return count.size();
}

/// A message variant's bytes: tag byte (variant index + 1), then the
/// alternative's fields. `marks`, when given, receives every validated
/// byte's position.
template <class V>
std::vector<std::uint8_t> encode(const V& message,
                                 std::vector<Mark>* marks = nullptr) {
  ByteWriter out;
  Writer<ByteWriter> w(out, marks);
  w(message);
  return out.take();
}

/// Inverse of encode(). Every rejection throws `Error`, its message
/// prefixed with `what`.
template <class V, class Error = DecodeError>
V decode(std::span<const std::uint8_t> bytes, const char* what) {
  try {
    Reader r(bytes);
    V message;
    r(message);
    if (r.remaining() != 0) throw DecodeError("trailing bytes");
    return message;
  } catch (const DecodeError& e) {
    throw Error(std::string(what) + ": " + e.what());
  }
}

}  // namespace laces::codec
