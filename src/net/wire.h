// Explicit little-endian wire format.
//
// The paper's cache servers exchange records over EC2's network; our
// substitute keeps the full serialize → transfer → deserialize code path but
// delivers in-process (see rpc.h).  Integers are fixed-width little-endian
// or LEB128 varints; byte strings are varint-length-prefixed.  Decoding is
// bounds-checked and never reads past the buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ecc::net {

class WireWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(std::uint16_t v) { PutFixed(&v, sizeof(v)); }
  void PutU32(std::uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(std::uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }

  void PutVarint(std::uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<std::uint8_t>(v));
  }

  void PutBytes(std::string_view bytes) {
    PutVarint(bytes.size());
    buf_.append(bytes.data(), bytes.size());
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string TakeBuffer() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  void PutFixed(const void* p, std::size_t n) {
    // Little-endian hosts only (asserted at build time below).
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "wire format assumes a little-endian host");

/// Resize `s` to `n` bytes without writing the bytes it gains: the caller
/// must overwrite [old size, n) before reading them.  `resize` would zero
/// them first, a whole extra pass over every received payload.  Shrinking
/// behaves like `resize`.
void ResizeUninitialized(std::string& s, std::size_t n);

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

  [[nodiscard]] Status GetU8(std::uint8_t& out);
  [[nodiscard]] Status GetU16(std::uint16_t& out);
  [[nodiscard]] Status GetU32(std::uint32_t& out);
  [[nodiscard]] Status GetU64(std::uint64_t& out);
  [[nodiscard]] Status GetDouble(double& out);
  [[nodiscard]] Status GetVarint(std::uint64_t& out);
  [[nodiscard]] Status GetBytes(std::string& out);

 private:
  [[nodiscard]] Status GetFixed(void* p, std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace ecc::net
