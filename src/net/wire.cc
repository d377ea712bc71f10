#include "net/wire.h"

namespace ecc::net {

#if !defined(__cpp_lib_string_resize_and_overwrite) && defined(__GLIBCXX__) && \
    _GLIBCXX_USE_CXX11_ABI
namespace {
// Before C++23 the standard library offers no way to grow a string without
// zeroing the new bytes.  libstdc++ has the primitive, the private
// _M_set_length (set size, write the terminator); an explicit instantiation
// may name a private member, and the friend it defines hands the pointer
// out.
void SetLength(std::string& s, std::size_t n);
template <void (std::string::*kSetLength)(std::string::size_type)>
struct SetLengthAccess {
  friend void SetLength(std::string& s, std::size_t n) { (s.*kSetLength)(n); }
};
template struct SetLengthAccess<&std::string::_M_set_length>;
}  // namespace
#endif

void ResizeUninitialized(std::string& s, std::size_t n) {
#if defined(__cpp_lib_string_resize_and_overwrite)
  s.resize_and_overwrite(n, [](char*, std::size_t size) { return size; });
#elif defined(__GLIBCXX__) && _GLIBCXX_USE_CXX11_ABI
  if (n > s.capacity()) s.reserve(n);
  SetLength(s, n);
#else
  s.resize(n);
#endif
}

Status WireReader::GetFixed(void* p, std::size_t n) {
  if (remaining() < n) return Status::InvalidArgument("wire underrun");
  std::memcpy(p, data_.data() + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status WireReader::GetU8(std::uint8_t& out) { return GetFixed(&out, 1); }
Status WireReader::GetU16(std::uint16_t& out) { return GetFixed(&out, 2); }
Status WireReader::GetU32(std::uint32_t& out) { return GetFixed(&out, 4); }
Status WireReader::GetU64(std::uint64_t& out) { return GetFixed(&out, 8); }
Status WireReader::GetDouble(double& out) { return GetFixed(&out, 8); }

Status WireReader::GetVarint(std::uint64_t& out) {
  out = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    std::uint8_t byte = 0;
    if (Status s = GetU8(byte); !s.ok()) return s;
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return Status::Ok();
  }
  return Status::InvalidArgument("varint too long");
}

Status WireReader::GetBytes(std::string& out) {
  std::uint64_t len = 0;
  if (Status s = GetVarint(len); !s.ok()) return s;
  if (remaining() < len) return Status::InvalidArgument("wire underrun");
  out.assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

}  // namespace ecc::net
