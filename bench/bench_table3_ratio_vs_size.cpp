// Table III — compression ratio vs flow size for the Sort application.
// Paper: ratio falls from 66.46% at 10 KB to 25.07% at 10 GB and levels
// off. We measure the real codec up to 64 MiB (the per-byte framing
// overhead effect saturates well before that) and print the carried model
// (log-interpolated Table III) for the full range.
#include "bench_common.hpp"
#include "codec/codec_model.hpp"
#include "codec/synth_data.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"max_real_bytes"});
  const auto max_real =
      static_cast<std::size_t>(flags.get_int("max_real_bytes", 64 << 20));

  bench::print_header(
      "Table III - compression ratio vs flow size (Sort)",
      "Paper: 66.46% @ 10 KB down to 25.07% @ 10 GB, flattening out");

  const auto codec = codec::make_codec(codec::CodecKind::kLzBalanced);
  const auto& app = codec::app_by_name("Sort");

  common::Table table({"Flow size", "paper ratio", "model ratio",
                       "measured ratio (swlz)"});
  for (const auto& [size, paper_ratio] : codec::table3_points()) {
    std::string measured = "-";
    if (size <= static_cast<double>(max_real)) {
      common::Rng rng(static_cast<std::uint64_t>(size));
      const codec::Buffer payload =
          app.generate(static_cast<std::size_t>(size), rng);
      measured = common::fmt_percent(codec::compression_ratio(
          payload.size(), codec->compress(payload).size()));
    }
    table.add_row({common::fmt_bytes(size), common::fmt_percent(paper_ratio),
                   common::fmt_percent(codec::table3_ratio(size)), measured});
  }
  table.print(std::cout);
  std::cout << "(real measurements capped at " << common::fmt_bytes(max_real)
            << "; the model column is what the simulator consumes)\n";
  return 0;
}
