// Fig. 6(d) — CDF of FCT for FVDF, SRTF, FIFO, FAIR.
// Paper: SRTF leads FVDF slightly at the small-flow head (FVDF pays some
// slice waste), FVDF overtakes as flows grow thanks to compression, saving
// >24.67% accumulated time and finishing all flows ~1.33x earlier.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));

  bench::print_header(
      "Fig. 6(d) - CDF of flow completion times",
      "Paper: FVDF overtakes SRTF beyond the head; all-flows completion"
      " improves ~1.33x; >24.67% accumulated time saved");

  const workload::Trace trace = bench::paper_like_trace(seed, 50);
  const auto runs = bench::run_all(trace, common::mbps(100), 0.9,
                                   {"FVDF", "SRTF", "FIFO", "FAIR"});

  common::Table table({"percentile", "FVDF (s)", "SRTF (s)", "FIFO (s)",
                       "FAIR (s)"});
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}) {
    std::vector<std::string> row{common::fmt_percent(q, 0)};
    for (const auto& run : runs)
      row.push_back(common::fmt_double(run.metrics.fct_cdf().quantile(q), 2));
    table.add_row(row);
  }
  table.print(std::cout);

  double fvdf_sum = 0, srtf_sum = 0;
  for (const auto& f : runs[0].metrics.flows) fvdf_sum += f.fct();
  for (const auto& f : runs[1].metrics.flows) srtf_sum += f.fct();
  common::Table summary({"metric", "paper", "measured"});
  summary.add_row({"accumulated time saved vs SRTF", ">24.67%",
                   common::fmt_percent(1.0 - fvdf_sum / srtf_sum)});
  summary.add_row(
      {"all-flows completion vs SRTF", "1.33x",
       bench::improvement(runs[1].metrics.makespan(),
                          runs[0].metrics.makespan())});
  std::cout << '\n';
  summary.print(std::cout);
  return 0;
}
