// Fig. 6(b) — average-FCT improvement of FVDF classified by flow size.
// Paper: significant improvements over FIFO/FAIR everywhere; the edge over
// SRTF is larger for large flows (both serve small flows first, FVDF adds
// compression which matters most for the big ones).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));

  bench::print_header(
      "Fig. 6(b) - avg FCT improvement by flow-size class",
      "Paper: FVDF wins in every class; the SRTF gap grows with flow size");

  const workload::Trace trace = bench::paper_like_trace(seed, 50);
  const auto runs = bench::run_all(trace, common::mbps(100), 0.9,
                                   {"FVDF", "SRTF", "FIFO", "FAIR"});

  const std::vector<std::tuple<std::string, double, double>> bands = {
      {"small  (< 10 MB)", 0.0, 10 * common::kMB},
      {"medium (10-100 MB)", 10 * common::kMB, 100 * common::kMB},
      {"large  (> 100 MB)", 100 * common::kMB, 1e18},
  };

  common::Table table({"flow size class", "FVDF avg FCT (s)", "vs SRTF",
                       "vs FIFO", "vs FAIR"});
  for (const auto& [label, lo, hi] : bands) {
    const double fvdf = runs[0].metrics.avg_fct_in_size_band(lo, hi);
    table.add_row(
        {label, common::fmt_double(fvdf, 2),
         bench::improvement(runs[1].metrics.avg_fct_in_size_band(lo, hi), fvdf),
         bench::improvement(runs[2].metrics.avg_fct_in_size_band(lo, hi), fvdf),
         bench::improvement(runs[3].metrics.avg_fct_in_size_band(lo, hi),
                            fvdf)});
  }
  table.print(std::cout);
  return 0;
}
