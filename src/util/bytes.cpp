#include "util/bytes.hpp"

#include <type_traits>

namespace mocc::util {

namespace {
// Appends a u32 count, then every element little-endian, in one resize.
template <typename T>
void append_vector_le(std::vector<std::uint8_t>& buf, const std::vector<T>& v) {
  const auto count = static_cast<std::uint32_t>(v.size());
  std::size_t at = buf.size();
  buf.resize(at + 4 + sizeof(T) * v.size());
  for (std::size_t i = 0; i < 4; ++i) {
    buf[at++] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  for (const T x : v) {
    const auto u = static_cast<std::make_unsigned_t<T>>(x);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf[at++] = static_cast<std::uint8_t>(u >> (8 * i));
    }
  }
}
}  // namespace

void ByteWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::put_u64_vector(const std::vector<std::uint64_t>& v) {
  append_vector_le(buf_, v);
}

void ByteWriter::put_i64_vector(const std::vector<std::int64_t>& v) {
  append_vector_le(buf_, v);
}

void ByteWriter::put_u32_vector(const std::vector<std::uint32_t>& v) {
  append_vector_le(buf_, v);
}

std::string ByteReader::get_string() {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(pos_ + len <= buf_.size(), "message underflow");
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return s;
}

std::vector<std::uint8_t> ByteReader::get_bytes() {
  const std::span<const std::uint8_t> bytes = get_bytes_view();
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

std::span<const std::uint8_t> ByteReader::get_bytes_view() {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining(), "message underflow");
  const std::span<const std::uint8_t> bytes = buf_.subspan(pos_, len);
  pos_ += len;
  return bytes;
}

void ByteReader::get_u64_vector(std::vector<std::uint64_t>& out) {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining() / 8, "message underflow");
  out.clear();
  out.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) out.push_back(get_u64());
}

void ByteReader::get_i64_vector(std::vector<std::int64_t>& out) {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining() / 8, "message underflow");
  out.clear();
  out.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) out.push_back(get_i64());
}

void ByteReader::get_u32_vector(std::vector<std::uint32_t>& out) {
  const std::uint32_t len = get_u32();
  MOCC_ASSERT_MSG(len <= remaining() / 4, "message underflow");
  out.clear();
  out.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) out.push_back(get_u32());
}

std::vector<std::uint64_t> ByteReader::get_u64_vector() {
  std::vector<std::uint64_t> v;
  get_u64_vector(v);
  return v;
}

std::vector<std::int64_t> ByteReader::get_i64_vector() {
  std::vector<std::int64_t> v;
  get_i64_vector(v);
  return v;
}

std::vector<std::uint32_t> ByteReader::get_u32_vector() {
  std::vector<std::uint32_t> v;
  get_u32_vector(v);
  return v;
}

}  // namespace mocc::util
