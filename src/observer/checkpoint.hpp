// Checkpoint (de)serialization primitives for analyzer state.
//
// A fleet node must be able to snapshot a live analysis and resurrect it
// byte-identically after a crash (ISSUE 9; Castañeda–Piña et al. argue the
// observer's verdict is only honest across interruption when the observed
// prefix survives it).  Writer/Reader are the narrow waist every layer
// serializes through: the OnlineAnalyzer core, the Analysis plugins'
// versioned checkpoint()/restore() hooks, and the session/snapshot framing
// in src/net/.
//
// Design rules (mirroring the wire layer):
//   * fixed-width little-endian scalars — platform-independent, and byte
//     layout is a pure function of the value stream;
//   * the Reader is for UNTRUSTED input (snapshot files survive crashes and
//     feed a fuzz target): every read is bounds-checked, failure is sticky,
//     and length words are capped BEFORE they drive allocation;
//   * no framing here — callers length-prefix and CRC whole blobs
//     (net/snapshot.hpp).  A blob is all-or-nothing: on any read failure
//     the caller discards the partially restored object.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace mpx::observer::ckpt {

/// Largest length word (string/vector element count) the Reader honors.
/// Real checkpoints stay far below this; a hostile length must not drive
/// allocation.
inline constexpr std::uint64_t kMaxLen = 1ull << 28;

/// Appends fixed-width little-endian values to a byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  void le(std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader with a sticky failure flag.  After
/// any failed read every subsequent read returns 0/empty and ok() is
/// false, so callers can decode a whole record and check once at the end.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    return static_cast<std::uint8_t>(le(1));
  }
  [[nodiscard]] std::uint16_t u16() {
    return static_cast<std::uint16_t>(le(2));
  }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(le(4));
  }
  [[nodiscard]] std::uint64_t u64() { return le(8); }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(le(8));
  }
  [[nodiscard]] bool boolean() { return u8() != 0; }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    if (failed_ || n > kMaxLen || n > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Reads a length word for `elemSize`-byte elements; fails (sticky) when
  /// the count is implausible for the remaining bytes, so hostile counts
  /// never reach a reserve()/resize().
  [[nodiscard]] std::uint64_t len(std::size_t elemSize) {
    const std::uint64_t n = u64();
    if (failed_ || n > kMaxLen ||
        (elemSize != 0 && n > remaining() / elemSize)) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  [[nodiscard]] bool raw(std::uint8_t* out, std::size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return false;
    }
    // An empty copy may come with a null `out` (an empty vector's data()),
    // which memcpy must not be handed.
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return len_ - pos_; }
  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] bool atEnd() const noexcept {
    return !failed_ && pos_ == len_;
  }
  void fail() noexcept { failed_ = true; }

 private:
  std::uint64_t le(unsigned n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace mpx::observer::ckpt
