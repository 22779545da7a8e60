// Byte-exact state serialization primitives for crash recovery.
//
// StateWriter/StateReader move POD values through a flat little-endian
// byte stream. Doubles travel as their IEEE-754 bit patterns (bit_cast to
// u64), so every simulated-time instant, byte pool and rate restores to
// the exact value it was saved from — the foundation of the kill-anywhere
// byte-identity contract (DESIGN.md section 13). Each primitive moves as
// one memcpy of its little-endian image (common/endian.hpp);
// test_recovery pins the bytes, since the journal format carries no
// version. The reader is fully bounds-checked: any truncated, oversized
// or type-skewed input surfaces as a typed RecoveryError carrying the byte
// offset, never as UB (the loader fuzz tests in test_recovery run this
// under ASan/UBSan).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/endian.hpp"

namespace swallow::recovery {

/// Any failure of the recovery machinery: truncated or corrupted snapshot
/// or journal bytes, version skew, config/trace mismatch between the
/// snapshot and the restoring run, or a journal record that contradicts
/// the deterministically replayed event stream.
class RecoveryError : public std::runtime_error {
 public:
  /// `offset` is the byte position in the offending stream when the error
  /// is about malformed bytes; npos (the default) when it is semantic.
  static constexpr std::uint64_t npos = ~std::uint64_t{0};
  explicit RecoveryError(const std::string& what,
                         std::uint64_t offset = npos)
      : std::runtime_error(offset == npos
                               ? what
                               : what + " (at byte offset " +
                                     std::to_string(offset) + ")"),
        offset_(offset) {}

  std::uint64_t offset() const { return offset_; }

 private:
  std::uint64_t offset_;
};

/// Appends little-endian primitives to a growing byte buffer.
class StateWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { common::store_le(grow(sizeof v), v); }
  void u64(std::uint64_t v) { common::store_le(grow(sizeof v), v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void reserve(std::size_t n) { out_.reserve(n); }

  const std::vector<std::uint8_t>& buffer() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  std::vector<std::uint8_t> out_;
};

/// Bounds-checked reader over a byte span; throws RecoveryError (with the
/// current offset) instead of reading past the end.
class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    const auto v = common::load_le<std::uint32_t>(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    const auto v = common::load_le<std::uint64_t>(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    need(n, "string payload");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Length-prefix guard: a count about to drive a reserve/resize must be
  /// storable in the remaining bytes (at >= 1 byte per element), so a
  /// corrupted length can never become a reserve bomb.
  std::uint64_t count(const char* what) {
    const std::uint64_t n = u64();
    if (n > remaining())
      throw RecoveryError(std::string("recovery: implausible ") + what +
                              " count " + std::to_string(n),
                          pos_);
    return n;
  }

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n, const char* what) {
    if (data_.size() - pos_ < n)
      throw RecoveryError(std::string("recovery: truncated stream reading ") +
                              what,
                          pos_);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace swallow::recovery
