#include "codec/lz_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "codec/varint.hpp"

namespace swallow::codec {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
// The last bytes stay literal so 4-byte hash reads and match extension never
// run past the input.
constexpr std::size_t kTailGuard = 8;

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <int Bits>
std::uint32_t hash32(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - Bits);
}

/// Emits one sequence; returns new output position.
std::size_t emit_sequence(std::uint8_t* out, std::size_t op,
                          const std::uint8_t* literals, std::size_t lit_len,
                          std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nib = std::min<std::size_t>(lit_len, 15);
  std::size_t token_pos = op++;
  if (lit_len >= 15) {
    std::size_t rest = lit_len - 15;
    while (rest >= 255) {
      out[op++] = 255;
      rest -= 255;
    }
    out[op++] = static_cast<std::uint8_t>(rest);
  }
  if (lit_len > 0) std::memcpy(out + op, literals, lit_len);
  op += lit_len;

  if (match_len == 0) {  // final literal-only sequence
    out[token_pos] = static_cast<std::uint8_t>(lit_nib << 4);
    return op;
  }

  const std::size_t m = match_len - kMinMatch;
  const std::size_t match_nib = std::min<std::size_t>(m, 15);
  out[token_pos] =
      static_cast<std::uint8_t>((lit_nib << 4) | match_nib);
  out[op++] = static_cast<std::uint8_t>(offset & 0xff);
  out[op++] = static_cast<std::uint8_t>(offset >> 8);
  if (m >= 15) {
    std::size_t rest = m - 15;
    while (rest >= 255) {
      out[op++] = 255;
      rest -= 255;
    }
    out[op++] = static_cast<std::uint8_t>(rest);
  }
  return op;
}

// Word-at-a-time match extension: compare 8 bytes per step and locate the
// first differing byte with a count-zero-bits on the XOR. Same result as the
// byte loop (the tail guard keeps reads in-bounds only up to `limit`, so the
// word path stops 8 bytes early and the byte loop finishes).
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         const std::uint8_t* limit) {
  const std::uint8_t* start = b;
  while (b + 8 <= limit) {
    std::uint64_t x, y;
    std::memcpy(&x, a, 8);
    std::memcpy(&y, b, 8);
    const std::uint64_t diff = x ^ y;
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return static_cast<std::size_t>(b - start) +
             static_cast<std::size_t>(bits >> 3);
    }
    a += 8;
    b += 8;
  }
  while (b < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(b - start);
}

// Greedy single-probe matcher (kFast, kBalanced). The table size and skip
// acceleration are template parameters so the probe loop compiles with
// constant shifts and no preset branches.
template <int HashBits, bool Accelerate>
std::size_t encode_hash(std::span<const std::uint8_t> in, std::uint8_t* out) {
  const std::uint8_t* base = in.data();
  const std::size_t n = in.size();
  const std::size_t match_limit = n - kTailGuard;
  // Per-thread scratch: assign() re-zeroes without reallocating when block
  // after block hits the same preset (the chunk pool's workers each keep
  // their own copy).
  thread_local std::vector<std::uint32_t> table_storage;
  table_storage.assign(std::size_t{1} << HashBits, 0);
  // A local pointer: byte stores to `out` could alias the thread_local
  // vector's internals and would force a reload on every probe.
  std::uint32_t* const table = table_storage.data();

  std::size_t op = 0;
  std::size_t anchor = 0;  // start of the pending literal run
  std::size_t ip = 0;
  std::uint32_t misses = 0;

  while (ip < match_limit) {
    const std::uint32_t h = hash32<HashBits>(read32(base + ip));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(ip + 1);

    // Evaluated without short-circuits: in incompressible stretches the
    // window test alone is a coin flip, and one predictable branch on the
    // combined result is cheaper than a mispredicted one per byte. An
    // empty slot (cand == 0) probes position 0, which is always in bounds.
    const std::size_t probe = cand != 0 ? cand - 1 : 0;
    const bool usable = (cand != 0) & ((ip + 1 - cand) <= kMaxOffset) &
                        (read32(base + probe) == read32(base + ip));
    if (!usable) {
      // Skip acceleration: in incompressible regions stride grows so the
      // scan stays O(n) with a small constant (LZ4's trick).
      ip += Accelerate ? 1 + (misses++ >> 6) : 1;
      continue;
    }
    misses = 0;
    const std::size_t match_pos = cand - 1;
    // The probe already compared the first kMinMatch bytes.
    const std::size_t len =
        ip + kMinMatch <= match_limit
            ? kMinMatch + match_length(base + match_pos + kMinMatch,
                                       base + ip + kMinMatch,
                                       base + match_limit)
            : match_length(base + match_pos, base + ip, base + match_limit);
    if (len < kMinMatch) {
      ++ip;
      continue;
    }
    op = emit_sequence(out, op, base + anchor, ip - anchor, len,
                       ip - match_pos);
    ip += len;
    anchor = ip;
    // Seed the table inside the match so back-to-back matches chain well.
    if (ip < match_limit)
      table[hash32<HashBits>(read32(base + ip - 2))] =
          static_cast<std::uint32_t>(ip - 1);
  }
  return emit_sequence(out, op, base + anchor, n - anchor, 0, 0);
}

// Hash-chain matcher (kHigh): best of up to kChainDepth candidates.
std::size_t encode_chain(std::span<const std::uint8_t> in, std::uint8_t* out) {
  constexpr int kHashBits = 16;
  constexpr std::size_t kChainDepth = 64;
  const std::uint8_t* base = in.data();
  const std::size_t n = in.size();
  const std::size_t match_limit = n - kTailGuard;

  thread_local std::vector<std::uint32_t> head_storage;
  thread_local std::vector<std::uint32_t> prev_storage;
  head_storage.assign(std::size_t{1} << kHashBits, 0);
  prev_storage.assign(n, 0);  // prev[pos] = earlier pos + 1
  std::uint32_t* const head = head_storage.data();
  std::uint32_t* const prev = prev_storage.data();

  auto insert = [&](std::size_t pos) {
    const std::uint32_t h = hash32<kHashBits>(read32(base + pos));
    prev[pos] = head[h];
    head[h] = static_cast<std::uint32_t>(pos + 1);
  };

  std::size_t op = 0;
  std::size_t anchor = 0;
  std::size_t ip = 0;

  while (ip < match_limit) {
    const std::uint32_t h = hash32<kHashBits>(read32(base + ip));
    // Hoisted window bound: one subtraction here replaces a subtract+compare
    // against ip at every chain hop.
    const std::size_t window_lo = ip > kMaxOffset ? ip - kMaxOffset : 0;
    std::size_t best_len = 0, best_pos = 0;
    std::uint32_t cand = head[h];
    for (std::size_t depth = 0; cand != 0 && depth < kChainDepth; ++depth) {
      const std::size_t pos = cand - 1;
      if (pos < window_lo) break;  // chain is ordered by recency
      if (base[pos + best_len] == base[ip + best_len]) {
        const std::size_t len =
            match_length(base + pos, base + ip, base + match_limit);
        if (len > best_len) {
          best_len = len;
          best_pos = pos;
        }
      }
      cand = prev[pos];
    }
    insert(ip);
    if (best_len < kMinMatch) {
      ++ip;
      continue;
    }
    op = emit_sequence(out, op, base + anchor, ip - anchor, best_len,
                       ip - best_pos);
    // Index every position inside the match (bounded work, better ratio).
    const std::size_t end = std::min(ip + best_len, match_limit);
    for (std::size_t pos = ip + 1; pos < end; ++pos) insert(pos);
    ip += best_len;
    anchor = ip;
  }
  return emit_sequence(out, op, base + anchor, n - anchor, 0, 0);
}

}  // namespace

LzCodec::LzCodec(LzPreset preset) : preset_(preset) {}

std::string LzCodec::name() const {
  switch (preset_) {
    case LzPreset::kFast: return "swlz-fast";
    case LzPreset::kBalanced: return "swlz-balanced";
    case LzPreset::kHigh: return "swlz-high";
  }
  return "swlz";
}

std::uint8_t LzCodec::id() const {
  switch (preset_) {
    case LzPreset::kFast: return 2;
    case LzPreset::kBalanced: return 3;
    case LzPreset::kHigh: return 4;
  }
  return 2;
}

std::size_t LzCodec::max_payload_size(std::size_t raw) const {
  return raw + raw / 255 + 16;
}

std::size_t LzCodec::max_compressed_size(std::size_t raw) const {
  return 1 + varint_size(raw) + max_payload_size(raw);
}

std::size_t LzCodec::encode(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) const {
  if (in.size() <= kTailGuard + kMinMatch)
    return emit_sequence(out.data(), 0, in.data(), in.size(), 0, 0);
  switch (preset_) {
    case LzPreset::kFast: return encode_hash<13, true>(in, out.data());
    case LzPreset::kBalanced: return encode_hash<16, false>(in, out.data());
    case LzPreset::kHigh: return encode_chain(in, out.data());
  }
  throw CodecError("swlz: unknown preset");
}

void LzCodec::decode(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const {
  // Pointer walk with over-copies: literals move 16 bytes and far matches
  // 8 bytes per step, each allowed only while the rounded-up copy stays
  // inside `out` (and, for literals, inside `in`). The bound is the end of
  // this span, never of any larger buffer it was cut from: parallel chunk
  // decodes write adjacent sub-spans of one payload.
  const std::uint8_t* ip = in.data();
  const std::uint8_t* const iend = ip + in.size();
  std::uint8_t* op = out.data();
  std::uint8_t* const ostart = op;
  std::uint8_t* const oend = op + out.size();

  auto read_extended = [&](std::size_t nib) {
    std::size_t len = nib;
    if (nib == 15) {
      std::uint8_t b;
      do {
        if (ip >= iend) throw CodecError("swlz: truncated length");
        b = *ip++;
        len += b;
      } while (b == 255);
    }
    return len;
  };
  auto room = [](const auto* from, const auto* to) {
    return static_cast<std::size_t>(to - from);
  };

  while (true) {
    if (ip >= iend) throw CodecError("swlz: missing token");
    const std::uint8_t token = *ip++;
    const std::size_t lit_len = read_extended(token >> 4);
    if (lit_len > room(ip, iend)) throw CodecError("swlz: truncated literals");
    if (lit_len > room(op, oend))
      throw CodecError("swlz: literals overflow output");
    const std::size_t lit_span = (lit_len + 15) & ~std::size_t{15};
    if (lit_span <= room(ip, iend) && lit_span <= room(op, oend)) {
      for (std::size_t i = 0; i < lit_len; i += 16)
        std::memcpy(op + i, ip + i, 16);
    } else if (lit_len > 0) {
      std::memcpy(op, ip, lit_len);
    }
    ip += lit_len;
    op += lit_len;

    if (ip == iend) {
      if (op != oend) throw CodecError("swlz: output size mismatch");
      return;  // final literal-only sequence
    }

    if (room(ip, iend) < 2) throw CodecError("swlz: truncated offset");
    const std::size_t offset = static_cast<std::size_t>(ip[0]) |
                               (static_cast<std::size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0 || offset > room(ostart, op))
      throw CodecError("swlz: bad match offset");
    const std::size_t match_len = read_extended(token & 0x0f) + kMinMatch;
    if (match_len > room(op, oend))
      throw CodecError("swlz: match overflows output");
    const std::uint8_t* src = op - offset;
    const std::size_t match_span = (match_len + 7) & ~std::size_t{7};
    if (offset >= 8 && match_span <= room(op, oend)) {
      // Each 8-byte read ends at or before the write cursor, so it only
      // sees bytes already produced.
      for (std::size_t i = 0; i < match_len; i += 8)
        std::memcpy(op + i, src + i, 8);
    } else {
      // Near matches (offset < 8) replicate runs byte by byte, as does a
      // match whose rounded-up copy would pass the end of `out`.
      for (std::size_t i = 0; i < match_len; ++i) op[i] = src[i];
    }
    op += match_len;
  }
}

}  // namespace swallow::codec
