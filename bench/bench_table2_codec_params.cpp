// Table II — compression parameters of codecs.
// Paper (production codecs): LZ4 785 MB/s @ 62.15% ... Zstandard 330 MB/s
// @ 34.77%. The simulation carries those numbers verbatim as models; this
// bench additionally measures our from-scratch swlz codecs on the same
// kind of payload, showing the same speed/ratio trade-off shape
// (fast preset = fastest/worst ratio, high preset = slowest/best ratio).
#include "bench_common.hpp"
#include "codec/codec_model.hpp"
#include "codec/synth_data.hpp"
#include "codec/throughput.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"payload_bytes"});
  const auto bytes =
      static_cast<std::size_t>(flags.get_int("payload_bytes", 8 << 20));

  bench::print_header(
      "Table II - compression parameters (speed and ratio)",
      "Paper models carried verbatim + our swlz codecs measured live");

  common::Table paper({"Algorithm", "Compression", "Decompression", "Ratio"});
  for (const auto& m : codec::table2_codecs()) {
    paper.add_row({m.name,
                   common::fmt_int(m.compress_speed / common::kMB) + " MB/s",
                   common::fmt_int(m.decompress_speed / common::kMB) + " MB/s",
                   common::fmt_percent(m.ratio)});
  }
  std::cout << "Paper Table II (used as simulation models):\n";
  paper.print(std::cout);

  common::Rng rng(11);
  const codec::Buffer payload = codec::mixed_bytes(bytes, rng, 0.15);
  common::Table ours(
      {"Codec", "Compression", "Decompression", "Ratio"});
  for (const codec::CodecKind kind :
       {codec::CodecKind::kLzFast, codec::CodecKind::kLzBalanced,
        codec::CodecKind::kLzHigh, codec::CodecKind::kLzHuff,
        codec::CodecKind::kHuffman, codec::CodecKind::kRle}) {
    const auto codec = codec::make_codec(kind);
    const auto result = codec::measure_codec(*codec, payload, 3);
    ours.add_row({codec->name(),
                  common::fmt_int(result.compress_mbps) + " MB/s",
                  common::fmt_int(result.decompress_mbps) + " MB/s",
                  common::fmt_percent(result.ratio)});
  }
  std::cout << "\nOur codecs measured on " << common::fmt_bytes(bytes)
            << " of mixed shuffle payload (roundtrip verified):\n";
  ours.print(std::cout);
  return 0;
}
