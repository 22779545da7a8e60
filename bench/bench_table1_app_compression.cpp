// Table I — intermediate shuffle data of 11 HiBench applications,
// compressed vs uncompressed. Paper ratios range 18.97%..75.13%; here each
// application's synthetic payload is compressed with the real swlz codec.
#include "bench_common.hpp"
#include "codec/synth_data.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"block_bytes"});
  const auto block = static_cast<std::size_t>(
      flags.get_int("block_bytes", 1 << 18));

  bench::print_header(
      "Table I - per-application shuffle compressibility",
      "Paper: compressed/uncompressed bytes of one shuffle block, 11 apps");

  const auto codec = codec::make_codec(codec::CodecKind::kLzBalanced);
  common::Table table({"Application", "Uncompressed", "Compressed",
                       "paper ratio", "measured ratio"});
  std::size_t index = 0;
  for (const auto& app : codec::table1_apps()) {
    common::Rng rng(100 + index++);
    const codec::Buffer payload = app.generate(block, rng);
    const codec::Buffer compressed = codec->compress(payload);
    table.add_row({app.name, common::fmt_int(payload.size()),
                   common::fmt_int(compressed.size()),
                   common::fmt_percent(app.paper_ratio),
                   common::fmt_percent(codec::compression_ratio(
                       payload.size(), compressed.size()))});
  }
  table.print(std::cout);
  std::cout << "(block size " << common::fmt_bytes(block)
            << ", codec swlz-balanced; payloads verified to roundtrip by the"
               " test suite)\n";
  return 0;
}
