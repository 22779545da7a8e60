// swlz bitstream tests: the over-copying decoder against a byte-at-a-time
// reference decoder (valid streams, overlapping runs into guarded
// sub-spans, mutated streams), and a pin on the encoder's exact output.
//
// The reference decoder lives only here. It copies every literal and match
// byte by byte and applies the same validity checks in the same order, so
// on any input the two decoders must agree on success versus CodecError
// and, on success, on every output byte. Every decode also runs into an
// exactly sized heap buffer, so under the ASan/UBSan CI job an over-copy
// past the span the decoder was handed fails even where it would rewrite
// guard bytes with their own values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "codec/lz_codec.hpp"
#include "codec/synth_data.hpp"
#include "codec/varint.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

constexpr std::size_t kMinMatch = 4;
constexpr std::uint8_t kGuardByte = 0xa5;
constexpr std::size_t kGuard = 32;

/// Byte-at-a-time swlz payload decoder (the format of lz_codec.hpp).
void reference_decode(std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) {
  std::size_t ip = 0, op = 0;
  auto read_extended = [&](std::size_t nib) {
    std::size_t len = nib;
    if (nib == 15) {
      std::uint8_t b;
      do {
        if (ip >= in.size()) throw CodecError("ref: truncated length");
        b = in[ip++];
        len += b;
      } while (b == 255);
    }
    return len;
  };
  while (true) {
    if (ip >= in.size()) throw CodecError("ref: missing token");
    const std::uint8_t token = in[ip++];
    const std::size_t lit_len = read_extended(token >> 4);
    if (lit_len > in.size() - ip) throw CodecError("ref: truncated literals");
    if (lit_len > out.size() - op) throw CodecError("ref: literals overflow");
    for (std::size_t i = 0; i < lit_len; ++i) out[op++] = in[ip++];
    if (ip == in.size()) {
      if (op != out.size()) throw CodecError("ref: output size mismatch");
      return;
    }
    if (in.size() - ip < 2) throw CodecError("ref: truncated offset");
    const std::size_t offset = in[ip] | (std::size_t{in[ip + 1]} << 8);
    ip += 2;
    if (offset == 0 || offset > op) throw CodecError("ref: bad offset");
    const std::size_t match_len = read_extended(token & 0x0f) + kMinMatch;
    if (match_len > out.size() - op) throw CodecError("ref: match overflow");
    for (std::size_t i = 0; i < match_len; ++i, ++op)
      out[op] = out[op - offset];
  }
}

struct Container {
  std::size_t raw = 0;
  std::size_t header = 0;  // bytes before the swlz payload
};

Container parse_header(std::span<const std::uint8_t> container) {
  Container c;
  c.header = 1;
  c.raw = static_cast<std::size_t>(read_varint(container, c.header));
  return c;
}

/// Decodes `container` with the codec into the middle of a guarded buffer
/// and checks that no byte outside the `raw`-byte window changed, then
/// again into an exactly sized allocation (ASan's view of an over-copy).
/// Returns the decoded bytes, or nullopt on CodecError.
std::optional<Buffer> guarded_decode(const Codec& codec,
                                     std::span<const std::uint8_t> container,
                                     std::size_t raw) {
  Buffer buf(kGuard + raw + kGuard, kGuardByte);
  const std::span<std::uint8_t> window(buf.data() + kGuard, raw);
  std::optional<Buffer> result;
  try {
    codec.decompress(container, window);
    result.emplace(window.begin(), window.end());
  } catch (const CodecError&) {
  }
  for (std::size_t i = 0; i < kGuard; ++i) {
    EXPECT_EQ(buf[i], kGuardByte) << "front guard byte " << i;
    EXPECT_EQ(buf[kGuard + raw + i], kGuardByte) << "back guard byte " << i;
  }
  auto exact = std::make_unique<std::uint8_t[]>(raw);
  bool exact_ok = true;
  try {
    codec.decompress(container, {exact.get(), raw});
  } catch (const CodecError&) {
    exact_ok = false;
  }
  EXPECT_EQ(exact_ok, result.has_value());
  if (exact_ok && result) {
    EXPECT_TRUE(std::equal(result->begin(), result->end(), exact.get()));
  }
  return result;
}

std::optional<Buffer> reference_result(std::span<const std::uint8_t> container,
                                       std::size_t raw) {
  Buffer out(raw);
  try {
    const Container c = parse_header(container);
    reference_decode(container.subspan(c.header), out);
  } catch (const CodecError&) {
    return std::nullopt;
  }
  return out;
}

const LzCodec& preset_codec(LzPreset preset) {
  static const LzCodec fast(LzPreset::kFast);
  static const LzCodec balanced(LzPreset::kBalanced);
  static const LzCodec high(LzPreset::kHigh);
  switch (preset) {
    case LzPreset::kFast: return fast;
    case LzPreset::kBalanced: return balanced;
    case LzPreset::kHigh: return high;
  }
  return balanced;
}

constexpr LzPreset kPresets[] = {LzPreset::kFast, LzPreset::kBalanced,
                                 LzPreset::kHigh};

TEST(SwlzDecode, ValidStreamsMatchReferenceAtEveryTailAlignment) {
  // 17 consecutive sizes per app shift where the last sequences fall
  // relative to the end of the output, the window where the over-copy
  // paths must fall back to exact copies.
  for (const LzPreset preset : kPresets) {
    const LzCodec& codec = preset_codec(preset);
    for (const AppProfile& app : table1_apps()) {
      Rng rng(11);
      const Buffer source = app.generate(3000 + 16, rng);
      for (std::size_t size = 3000; size <= 3000 + 16; ++size) {
        const std::span<const std::uint8_t> payload(source.data(), size);
        const Buffer container = codec.compress(payload);
        const auto fast = guarded_decode(codec, container, size);
        ASSERT_TRUE(fast.has_value()) << codec.name() << " " << app.name;
        EXPECT_TRUE(std::equal(fast->begin(), fast->end(), payload.begin()))
            << codec.name() << " " << app.name << " size " << size;
        EXPECT_EQ(reference_result(container, size), fast);
      }
    }
  }
}

/// token | literals | offset | [match extension] | final token | literals.
Buffer run_stream(std::size_t offset, std::size_t match_len,
                  std::size_t tail) {
  Buffer s;
  const std::size_t m = match_len - kMinMatch;
  s.push_back(static_cast<std::uint8_t>(
      (std::min<std::size_t>(offset, 15) << 4) | std::min<std::size_t>(m, 15)));
  if (offset >= 15) s.push_back(static_cast<std::uint8_t>(offset - 15));
  for (std::size_t i = 0; i < offset; ++i)
    s.push_back(static_cast<std::uint8_t>(0x30 + i));
  s.push_back(static_cast<std::uint8_t>(offset));
  s.push_back(0);
  if (m >= 15) s.push_back(static_cast<std::uint8_t>(m - 15));
  s.push_back(static_cast<std::uint8_t>(std::min<std::size_t>(tail, 15) << 4));
  if (tail >= 15) s.push_back(static_cast<std::uint8_t>(tail - 15));
  for (std::size_t i = 0; i < tail; ++i)
    s.push_back(static_cast<std::uint8_t>(0xc0 + i));
  return s;
}

TEST(SwlzDecode, OverlappingRunsStayInsideTheirSpan) {
  const LzCodec& codec = preset_codec(LzPreset::kBalanced);
  for (std::size_t offset = 1; offset <= 16; ++offset) {
    for (std::size_t len = 4; len <= 64; ++len) {
      for (std::size_t tail = 0; tail <= 16; ++tail) {
        const std::size_t raw = offset + len + tail;
        Buffer container(1 + varint_size(raw));
        container[0] = codec.id();
        write_varint(raw, container, 1);
        const Buffer payload = run_stream(offset, len, tail);
        container.insert(container.end(), payload.begin(), payload.end());

        const auto fast = guarded_decode(codec, container, raw);
        ASSERT_TRUE(fast.has_value())
            << "offset " << offset << " len " << len << " tail " << tail;
        const auto ref = reference_result(container, raw);
        ASSERT_TRUE(ref.has_value());
        EXPECT_EQ(*fast, *ref)
            << "offset " << offset << " len " << len << " tail " << tail;
        // The run repeats the offset-byte prefix.
        for (std::size_t i = offset; i < offset + len; ++i)
          ASSERT_EQ((*fast)[i], (*fast)[i - offset]);
      }
    }
  }
}

TEST(SwlzDecode, MutatedStreamsAgreeWithReference) {
  Rng rng(23);
  std::size_t failures = 0, successes = 0;
  for (const LzPreset preset : kPresets) {
    const LzCodec& codec = preset_codec(preset);
    for (const char* app : {"Wordcount", "Sort", "Logistic Regression"}) {
      Rng data_rng(5);
      const Buffer payload = app_by_name(app).generate(2048, data_rng);
      const Buffer container = codec.compress(payload);
      const Container header = parse_header(container);
      for (int trial = 0; trial < 600; ++trial) {
        Buffer mutated = container;
        const std::size_t body = mutated.size() - header.header;
        const std::size_t at =
            header.header + rng.uniform_int(0, body - 1);
        switch (trial % 3) {
          case 0: {  // overwrite 1-3 bytes
            const std::size_t n = 1 + rng.uniform_int(0, 2);
            for (std::size_t k = 0; k < n && at + k < mutated.size(); ++k)
              mutated[at + k] = static_cast<std::uint8_t>(rng.next_u64());
            break;
          }
          case 1:  // truncate
            mutated.resize(at);
            break;
          case 2:  // insert a byte
            mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at),
                           static_cast<std::uint8_t>(rng.next_u64()));
            break;
        }
        const auto fast = guarded_decode(codec, mutated, header.raw);
        const auto ref = reference_result(mutated, header.raw);
        ASSERT_EQ(fast.has_value(), ref.has_value())
            << codec.name() << " " << app << " trial " << trial;
        if (fast) {
          EXPECT_EQ(*fast, *ref);
          ++successes;
        } else {
          ++failures;
        }
      }
    }
  }
  // Both outcomes must actually occur for the agreement to mean anything.
  EXPECT_GT(failures, 0u);
  EXPECT_GT(successes, 0u);
}

// Size and digest of compress() output at 256 KiB per Table I app (Rng
// seed 2018). The encoder's bitstream is part of the contract: a change
// here moves traffic_reduction and the snapshot bytes, so it must be a
// deliberate format change, never a side effect of a speed-up.
struct Pin {
  const char* codec;
  const char* app;
  std::size_t size;
  std::uint64_t digest;
};

constexpr Pin kPins[] = {
    {"swlz-fast", "Wordcount", 151655, 0x8f5436ff77a39210ULL},
    {"swlz-fast", "Sort", 66735, 0xb266cc20831f2005ULL},
    {"swlz-fast", "Terasort", 73739, 0xdefc67a0126fb7f7ULL},
    {"swlz-fast", "Enhanced DFSIO", 50604, 0xdf776119e8136e68ULL},
    {"swlz-fast", "Logistic Regression", 200554, 0x112ec0cfd54ffd32ULL},
    {"swlz-fast", "Latent Dirichlet Allocation", 183255, 0x74bbdcd549007eb6ULL},
    {"swlz-fast", "Support Vector Machine", 127152, 0x51e376f33e7cce3eULL},
    {"swlz-fast", "Bayes", 69098, 0x4836ab546f442b27ULL},
    {"swlz-fast", "Random Forest", 183255, 0x74bbdcd549007eb6ULL},
    {"swlz-fast", "Pagerank", 112089, 0x97945c8dcfae351aULL},
    {"swlz-fast", "NWeight", 76466, 0xcc72be6320491acaULL},
    {"swlz-balanced", "Wordcount", 149537, 0xa4f7a6c70e2fac9bULL},
    {"swlz-balanced", "Sort", 66565, 0xc4bb913658213972ULL},
    {"swlz-balanced", "Terasort", 73504, 0xda6184432b5b1033ULL},
    {"swlz-balanced", "Enhanced DFSIO", 50445, 0xc02cb35ac5805347ULL},
    {"swlz-balanced", "Logistic Regression", 198791, 0x246aa68d88361f7bULL},
    {"swlz-balanced", "Latent Dirichlet Allocation", 181466,
     0xe8e3aed9ad1ee168ULL},
    {"swlz-balanced", "Support Vector Machine", 125689, 0x98f4ef79fd85298cULL},
    {"swlz-balanced", "Bayes", 68903, 0x6b3709eafb5b13a5ULL},
    {"swlz-balanced", "Random Forest", 181466, 0xe8e3aed9ad1ee168ULL},
    {"swlz-balanced", "Pagerank", 111145, 0x9c6e1bcca6b39999ULL},
    {"swlz-balanced", "NWeight", 76064, 0xf292e36143421a5fULL},
    {"swlz-high", "Wordcount", 108634, 0x0e98717e51136274ULL},
    {"swlz-high", "Sort", 46455, 0x8b8929d15ed74d3fULL},
    {"swlz-high", "Terasort", 50185, 0xfe19ec291b5fcebeULL},
    {"swlz-high", "Enhanced DFSIO", 38425, 0x44b6ffb4b27eb80aULL},
    {"swlz-high", "Logistic Regression", 173023, 0x43b0e7dbffaa04d2ULL},
    {"swlz-high", "Latent Dirichlet Allocation", 148127, 0x6e75b0b9fe678d19ULL},
    {"swlz-high", "Support Vector Machine", 90510, 0xa1c35d0056444529ULL},
    {"swlz-high", "Bayes", 47747, 0x818a4efbd8d392f3ULL},
    {"swlz-high", "Random Forest", 148127, 0x6e75b0b9fe678d19ULL},
    {"swlz-high", "Pagerank", 78539, 0xcc8b074af714e8fcULL},
    {"swlz-high", "NWeight", 53563, 0x49a8f43767c47592ULL},
};

/// Test-local FNV-1a, so the pin does not move with any library checksum.
std::uint64_t digest(std::span<const std::uint8_t> data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(SwlzEncode, OutputIsByteIdenticalToThePinnedBitstream) {
  ASSERT_EQ(std::size(kPins), 3 * table1_apps().size());
  for (const Pin& pin : kPins) {
    const LzCodec& codec = preset_codec(
        std::string(pin.codec) == "swlz-fast"       ? LzPreset::kFast
        : std::string(pin.codec) == "swlz-balanced" ? LzPreset::kBalanced
                                                    : LzPreset::kHigh);
    ASSERT_EQ(codec.name(), pin.codec);
    Rng rng(2018);
    const Buffer payload = app_by_name(pin.app).generate(256 * 1024, rng);
    const Buffer container = codec.compress(payload);
    EXPECT_EQ(container.size(), pin.size) << pin.codec << " " << pin.app;
    EXPECT_EQ(digest(container), pin.digest) << pin.codec << " " << pin.app;
  }
}

}  // namespace
}  // namespace swallow::codec
