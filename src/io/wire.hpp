// Byte-level wire primitives shared by every binary format in the tree:
// the checkpoint container (io/checkpoint) and the operator RPC protocol
// (rpc/protocol) both serialize through the same little-endian writer and
// the same bounds-checked reader, so "strict decode" means one thing
// everywhere — a truncated or length-corrupted stream can never be
// misinterpreted as data, it throws.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/time.hpp"

namespace gmfnet::io {

/// Base of every binary-decode failure (CheckpointError, rpc's
/// ProtocolError).  The shared primitives below throw plain WireError;
/// format entry points catch and rewrap it with format context.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& message)
      : std::runtime_error(message) {}
};

/// FNV-1a 64-bit — the payload checksum of both binary formats.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void time(gmfnet::Time t) { i64(t.ps()); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void raw(std::string_view s) { buf_.append(s); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over a byte range; every primitive read throws
/// WireError instead of walking past the end, so truncated or
/// length-corrupted streams can never be misinterpreted as data.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}
  ByteReader(std::string_view data, const char* what)
      : ByteReader(data.data(), data.size(), what) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  /// A bool byte: exactly 0 or 1.  Any other value is corruption, not
  /// "true" — accepting it would decode a stream that re-encodes to
  /// different bytes.
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw WireError(std::string(what_) + ": invalid bool byte " +
                      std::to_string(v));
    }
    return v != 0;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  gmfnet::Time time() { return gmfnet::Time(i64()); }
  std::string str() {
    const std::uint64_t len = u64();
    need(len);
    std::string out(data_ + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }
  /// A count of items that each occupy >= `min_item_bytes` in this reader:
  /// rejects counts the remaining bytes cannot possibly hold, so corrupted
  /// counts fail fast instead of driving giant allocations.
  std::size_t count(std::size_t min_item_bytes) {
    const std::uint64_t n = u64();
    if (min_item_bytes != 0 && n > remaining() / min_item_bytes) {
      throw WireError(std::string(what_) + ": item count exceeds stream size");
    }
    return static_cast<std::size_t>(n);
  }

  /// Sub-reader over the next `len` bytes (section body).
  ByteReader sub(std::size_t len, const char* what) {
    need(len);
    ByteReader r(data_ + pos_, len, what);
    pos_ += len;
    return r;
  }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) {
      throw WireError(std::string("truncated stream (") + what_ + ")");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

}  // namespace gmfnet::io
