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
#include <string>
#include <string_view>
#include <vector>

namespace mocc::util {

class ByteWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_string(std::string_view s);
  /// Same wire form as put_string: a u32 length, then the bytes.
  void put_bytes(const std::vector<std::uint8_t>& v);
  void put_u64_vector(const std::vector<std::uint64_t>& v);
  void put_i64_vector(const std::vector<std::int64_t>& v);
  void put_u32_vector(const std::vector<std::uint32_t>& v);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads values back in the order they were written. Out-of-bounds reads
/// abort (a malformed message is a bug in this codebase, not input); a
/// length prefix is checked against the bytes left before anything is
/// allocated for it.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  std::string get_string();
  /// Reads what put_bytes (or put_string) wrote, without a string copy.
  std::vector<std::uint8_t> get_bytes();
  std::vector<std::uint64_t> get_u64_vector();
  std::vector<std::int64_t> get_i64_vector();
  std::vector<std::uint32_t> get_u32_vector();

  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace mocc::util
