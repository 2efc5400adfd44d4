#include "util/bytes.hpp"

#include "util/assert.hpp"

namespace mocc::util {

namespace {
// Appends v little-endian in one insert.
template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  std::uint8_t raw[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf.insert(buf.end(), raw, raw + sizeof(T));
}
}  // namespace

void ByteWriter::put_u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::put_u32(std::uint32_t v) { append_le(buf_, v); }

void ByteWriter::put_u64(std::uint64_t v) { append_le(buf_, v); }

void ByteWriter::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::put_bytes(const std::vector<std::uint8_t>& v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::put_u64_vector(const std::vector<std::uint64_t>& v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) put_u64(x);
}

void ByteWriter::put_i64_vector(const std::vector<std::int64_t>& v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) put_i64(x);
}

void ByteWriter::put_u32_vector(const std::vector<std::uint32_t>& v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) put_u32(x);
}

std::uint8_t ByteReader::get_u8() {
  MOCC_ASSERT_MSG(pos_ + 1 <= buf_.size(), "message underflow");
  return buf_[pos_++];
}

std::uint32_t ByteReader::get_u32() {
  MOCC_ASSERT_MSG(pos_ + 4 <= buf_.size(), "message underflow");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::get_u64() {
  MOCC_ASSERT_MSG(pos_ + 8 <= buf_.size(), "message underflow");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::int64_t ByteReader::get_i64() { return static_cast<std::int64_t>(get_u64()); }

std::string ByteReader::get_string() {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(pos_ + len <= buf_.size(), "message underflow");
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return s;
}

std::vector<std::uint8_t> ByteReader::get_bytes() {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining(), "message underflow");
  const auto first = buf_.begin() + static_cast<std::ptrdiff_t>(pos_);
  pos_ += len;
  return std::vector<std::uint8_t>(first, first + static_cast<std::ptrdiff_t>(len));
}

std::vector<std::uint64_t> ByteReader::get_u64_vector() {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining() / 8, "message underflow");
  std::vector<std::uint64_t> v;
  v.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) v.push_back(get_u64());
  return v;
}

std::vector<std::int64_t> ByteReader::get_i64_vector() {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining() / 8, "message underflow");
  std::vector<std::int64_t> v;
  v.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) v.push_back(get_i64());
  return v;
}

std::vector<std::uint32_t> ByteReader::get_u32_vector() {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining() / 4, "message underflow");
  std::vector<std::uint32_t> v;
  v.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) v.push_back(get_u32());
  return v;
}

}  // namespace mocc::util
