// Little-endian loads and stores of unsigned integers.
//
// Each moves the value with one memcpy of its little-endian image: a plain
// load or store on little-endian hosts, plus a byte reversal (which
// compilers lower to one bswap) on big-endian ones. The on-disk and
// on-wire formats (codec frames, recovery snapshots and journal) are all
// little-endian.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace swallow::common {

/// `v` in little-endian byte order (its own inverse).
template <std::unsigned_integral T>
constexpr T to_le(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    T r = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      r = static_cast<T>((r << 8) | ((v >> (8 * i)) & 0xff));
    return r;
  }
}

/// Stores `v` at `p` (no bounds check: callers own the storage).
template <std::unsigned_integral T>
inline void store_le(std::uint8_t* p, T v) {
  v = to_le(v);
  std::memcpy(p, &v, sizeof v);
}

/// Loads a T from `p` (no bounds check: callers own the storage).
template <std::unsigned_integral T>
inline T load_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return to_le(v);
}

}  // namespace swallow::common
