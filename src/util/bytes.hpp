// Big-endian (network byte order) byte buffer serialization.
//
// Used both for on-the-wire probe packets (src/net), for the framed
// Orchestrator<->Worker message channel (src/core), and — via the
// varint/zigzag/delta codecs — for the columnar census archive
// (src/store).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace laces {

/// Thrown by ByteReader when a read runs past the end of the buffer.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only big-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reuse the capacity of `storage` (cleared first). Pairs with take() to
  /// recycle one scratch vector across many packet builds without
  /// reallocating per packet.
  explicit ByteWriter(std::vector<std::uint8_t>&& storage)
      : buf_(std::move(storage)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// LEB128 varint: 7 value bits per byte, little-group-first, high bit =
  /// continuation. 1 byte for values < 128, at most 10 bytes for 2^64-1.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  /// Zigzag-mapped signed varint (small magnitudes stay short).
  void svarint(std::int64_t v);
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  /// Length-prefixed (u32) string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Room for `n` bytes in all, so appends up to that size never reallocate.
  void reserve(std::size_t n) { buf_.reserve(n); }
  std::size_t size() const { return buf_.size(); }
  std::span<const std::uint8_t> view() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  /// Overwrite 2 bytes at `offset` (for checksum backpatching).
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked big-endian decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  /// LEB128 varint (see ByteWriter::varint). Rejects encodings longer than
  /// 10 bytes and 10-byte encodings whose final group overflows 64 bits.
  std::uint64_t varint();
  /// Zigzag-mapped signed varint.
  std::int64_t svarint();
  /// Borrow `n` raw bytes.
  std::span<const std::uint8_t> bytes(std::size_t n);
  /// Length-prefixed (u32) string.
  std::string str();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw DecodeError("buffer underrun");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Zigzag mapping: interleaves signed values onto unsigned so small
/// magnitudes of either sign get short varints (0,-1,1,-2 -> 0,1,2,3).
constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Delta codec over u64 sequences (wrap-around arithmetic, so any input —
/// sorted or not — round-trips exactly; sorted inputs yield small deltas).
/// delta_encode({a0,a1,a2}) == {a0, a1-a0, a2-a1}.
std::vector<std::uint64_t> delta_encode(std::span<const std::uint64_t> xs);
/// Inverse of delta_encode (prefix sum, wrapping).
std::vector<std::uint64_t> delta_decode(std::span<const std::uint64_t> ds);

/// Columnar helpers for sorted (or near-sorted) u64 columns: first value
/// and every wrap-around delta as a zigzag varint. Any sequence
/// round-trips; nondecreasing sequences encode to ~1 byte per element.
void put_delta_column(ByteWriter& w, std::span<const std::uint64_t> xs);
/// Reads `count` values written by put_delta_column.
std::vector<std::uint64_t> get_delta_column(ByteReader& r, std::size_t count);

}  // namespace laces
