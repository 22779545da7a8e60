// Fig. 6(f) — FVDF improvement over SEBF under different compression
// formats (LZ4/LZO/Snappy/LZF/Zstandard, Table II parameters). Paper: the
// formats' speed/ratio differences move the improvement but FVDF exceeds
// SEBF under every format.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 31));

  bench::print_header(
      "Fig. 6(f) - FVDF-over-SEBF improvement per compression format",
      "Paper: FVDF exceeds SEBF under every Table II codec");

  const workload::Trace trace = bench::paper_like_trace(seed, 40);
  const auto sebf = bench::run_all(trace, common::mbps(100), 0.9, {"SEBF"});
  const double sebf_cct = sebf[0].metrics.avg_cct();

  common::Table table({"format", "R (MB/s)", "ratio", "FVDF avg CCT (s)",
                       "improvement over SEBF", "traffic reduction"});
  for (const auto& model : codec::table2_codecs()) {
    const auto runs =
        bench::run_all(trace, common::mbps(100), 0.9, {"FVDF"}, &model);
    const double cct = runs[0].metrics.avg_cct();
    table.add_row({model.name,
                   common::fmt_int(model.compress_speed / common::kMB),
                   common::fmt_percent(model.ratio),
                   common::fmt_double(cct, 2),
                   bench::improvement(sebf_cct, cct),
                   common::fmt_percent(runs[0].metrics.traffic_reduction())});
  }
  table.print(std::cout);
  std::cout << "(SEBF avg CCT " << common::fmt_double(sebf_cct, 2)
            << " s at 100 Mbps)\n";
  return 0;
}
