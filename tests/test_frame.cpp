// Framed-container tests: roundtrips across codecs/block sizes/thread
// counts, determinism of parallel compression, checksum catching the
// corruption class bare LZ decoding cannot, and header validation.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <utility>

#include "codec/frame.hpp"
#include "codec/synth_data.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

class FrameRoundtrip
    : public ::testing::TestWithParam<std::tuple<CodecKind, int, unsigned>> {};

TEST_P(FrameRoundtrip, CompressDecompressIsIdentity) {
  const auto [kind, size, threads] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) + threads);
  const Buffer payload =
      mixed_bytes(static_cast<std::size_t>(size), rng, 0.2);
  const auto codec = make_codec(kind);
  const Buffer frame =
      frame_compress(*codec, payload, 16 * 1024, threads);
  EXPECT_TRUE(is_frame(frame));
  EXPECT_EQ(frame_decompressed_size(frame), payload.size());
  EXPECT_EQ(frame_decompress(frame, threads), payload);
}

std::string frame_param_name(
    const ::testing::TestParamInfo<std::tuple<CodecKind, int, unsigned>>&
        info) {
  std::string s = codec_kind_name(std::get<0>(info.param));
  for (auto& c : s)
    if (c == '-') c = '_';
  return s + "_" + std::to_string(std::get<1>(info.param)) + "b_" +
         std::to_string(std::get<2>(info.param)) + "t";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrameRoundtrip,
    ::testing::Combine(::testing::Values(CodecKind::kNull,
                                         CodecKind::kLzBalanced,
                                         CodecKind::kLzFast),
                       ::testing::Values(0, 1, 16384, 100000),
                       ::testing::Values(1u, 4u)),
    frame_param_name);

TEST(Frame, ParallelOutputIsByteIdentical) {
  Rng rng(5);
  const Buffer payload = text_bytes(300000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer serial = frame_compress(*codec, payload, 32 * 1024, 1);
  const Buffer parallel = frame_compress(*codec, payload, 32 * 1024, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(Frame, ChecksumCatchesSilentLiteralFlips) {
  // A flipped literal byte decodes "successfully" through a bare LZ
  // container; the frame checksum must reject it.
  Rng rng(6);
  const Buffer payload = text_bytes(60000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  Buffer frame = frame_compress(*codec, payload, 16 * 1024);
  int rejected = 0, clean = 0;
  Rng fuzz(7);
  for (int round = 0; round < 60; ++round) {
    Buffer corrupt = frame;
    const std::size_t pos = static_cast<std::size_t>(
        fuzz.uniform_int(5, corrupt.size() - 1));
    corrupt[pos] ^= static_cast<std::uint8_t>(1 + fuzz.uniform_int(0, 254));
    try {
      const Buffer out = frame_decompress(corrupt);
      // Only acceptable outcome: the decode is bit-perfect anyway (the
      // flip hit a redundant byte — cannot happen with this layout).
      EXPECT_EQ(out, payload);
      ++clean;
    } catch (const CodecError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(clean, 0);
  EXPECT_EQ(rejected, 60);
}

TEST(Frame, RejectsBadHeaders) {
  Rng rng(8);
  const Buffer payload = text_bytes(1000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  Buffer frame = frame_compress(*codec, payload);

  Buffer bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_THROW(frame_decompress(bad_magic), CodecError);
  EXPECT_FALSE(is_frame(bad_magic));
  EXPECT_THROW(frame_decompressed_size(bad_magic), CodecError);

  Buffer bad_codec = frame;
  bad_codec[4] = 0x7f;
  EXPECT_THROW(frame_decompress(bad_codec), CodecError);

  Buffer truncated = frame;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(frame_decompress(truncated), CodecError);

  Buffer trailing = frame;
  trailing.push_back(0);
  EXPECT_THROW(frame_decompress(trailing), CodecError);

  EXPECT_THROW(frame_compress(*codec, payload, 0), CodecError);
}

TEST(Frame, EmptyPayload) {
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer frame = frame_compress(*codec, {});
  EXPECT_EQ(frame_decompressed_size(frame), 0u);
  EXPECT_TRUE(frame_decompress(frame).empty());
}

TEST(Checksum64, PublishedXxh64Vectors) {
  // checksum64 is XXH64 with seed 0; these are the algorithm's published
  // reference values (the 39-byte string exercises the four-lane body).
  const auto sum = [](const char* s) {
    return checksum64({reinterpret_cast<const std::uint8_t*>(s),
                       std::strlen(s)});
  };
  EXPECT_EQ(sum(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(sum("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(sum("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(sum("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

TEST(Checksum64, KnownAnswersAcrossLaneAndTailBoundaries) {
  // Lengths straddle the 4-, 8- and 32-byte steps of the word loop.
  const std::pair<std::size_t, std::uint64_t> kVectors[] = {
      {0, 0xef46db3751d8e999ULL},    {1, 0xa96c7f0ce858bbb7ULL},
      {7, 0x2744460dd675d2c0ULL},    {8, 0x994b676b71ce94ddULL},
      {31, 0x6711d55e306b5d8fULL},   {32, 0x07f7b8e3bc5d6e25ULL},
      {33, 0x09f85eeb4e1cbe9fULL},   {4096, 0xcf05adf75aca30cfULL},
  };
  for (const auto& [n, expected] : kVectors) {
    Buffer data(n);
    for (std::size_t i = 0; i < n; ++i)
      data[i] = static_cast<std::uint8_t>(i * 131 + 7);
    EXPECT_EQ(checksum64(data), expected) << "length " << n;
  }
}

TEST(Checksum64, EverySingleBitFlipIsDetected) {
  Rng rng(4096);
  Buffer data = random_bytes(4096, rng);
  const std::uint64_t clean = checksum64(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_NE(checksum64(data), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(Checksum64, AppendingAZeroByteChangesTheSum) {
  // The length is mixed in, so zero padding cannot go unnoticed.
  for (const std::size_t n : {0u, 1u, 7u, 31u, 32u, 4095u}) {
    Buffer data(n, 0);
    const std::uint64_t before = checksum64(data);
    data.push_back(0);
    EXPECT_NE(checksum64(data), before) << "length " << n;
  }
}

TEST(Frame, Fnv1aKnownVector) {
  // FNV-1a 64-bit of empty input is the offset basis.
  EXPECT_EQ(fnv1a64({}), 14695981039346656037ULL);
  const Buffer a{'a'};
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cULL);
}

TEST(Frame, BlockSizeBoundsCompressionMemory) {
  // Many small blocks vs one big block: both roundtrip; the framed size
  // overhead stays proportional to the block count.
  Rng rng(9);
  const Buffer payload = run_bytes(200000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer small_blocks = frame_compress(*codec, payload, 4 * 1024);
  const Buffer big_blocks = frame_compress(*codec, payload, 128 * 1024);
  EXPECT_EQ(frame_decompress(small_blocks), payload);
  EXPECT_EQ(frame_decompress(big_blocks), payload);
  EXPECT_GT(small_blocks.size(), big_blocks.size());  // per-block overhead
}

}  // namespace
}  // namespace swallow::codec
