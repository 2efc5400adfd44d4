// Wire format for simulator messages.
//
// Protocol messages cross the simulated network as byte payloads rather
// than shared in-memory object graphs: this forces every replica to work
// only from information a real network would deliver, and lets the
// simulator account message sizes. Encoding is little-endian, varint-free
// fixed width (simplicity over compactness — payload *counting* is what
// the experiments need).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace mocc::util {

/// Encoded sizes, for sizing a ByteWriter before the first put.
inline constexpr std::size_t encoded_size(std::string_view s) { return 4 + s.size(); }
template <typename T>
constexpr std::size_t encoded_size(const std::vector<T>& v) {
  return 4 + sizeof(T) * v.size();
}
inline constexpr std::size_t encoded_size(std::span<const std::uint8_t> v) {
  return 4 + v.size();
}

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserves `capacity` bytes: a writer sized to its message allocates
  /// once.
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }
  /// Makes room for `more` bytes past those already written.
  void reserve(std::size_t more) { buf_.reserve(buf_.size() + more); }

  // Scalars are inline: a replica's decode and reply encode call them
  // once per field, several hundred times per m-operation.
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_string(std::string_view s);
  /// Same wire form as put_string: a u32 length, then the bytes.
  void put_bytes(std::span<const std::uint8_t> v);
  void put_u64_vector(const std::vector<std::uint64_t>& v);
  void put_i64_vector(const std::vector<std::int64_t>& v);
  void put_u32_vector(const std::vector<std::uint32_t>& v);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Reads values back in the order they were written. Out-of-bounds reads
/// abort (a malformed message is a bug in this codebase, not input); a
/// length prefix is checked against the bytes left before anything is
/// allocated for it.
class ByteReader {
 public:
  /// Reads `buf`, which must outlive the reader.
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  std::string get_string();
  /// Reads what put_bytes (or put_string) wrote, without a string copy.
  std::vector<std::uint8_t> get_bytes();
  /// The same bytes without any copy: a view into the reader's buffer.
  std::span<const std::uint8_t> get_bytes_view();
  std::vector<std::uint64_t> get_u64_vector();
  std::vector<std::int64_t> get_i64_vector();
  std::vector<std::uint32_t> get_u32_vector();
  /// The same reads into `out`, replacing its contents: a buffer reused
  /// across messages stops allocating once it has grown to fit.
  void get_u64_vector(std::vector<std::uint64_t>& out);
  void get_i64_vector(std::vector<std::int64_t>& out);
  void get_u32_vector(std::vector<std::uint32_t>& out);

  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  template <typename T>
  T get_le() {
    MOCC_ASSERT_MSG(sizeof(T) <= remaining(), "message underflow");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(buf_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace mocc::util
