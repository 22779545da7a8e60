// Fig. 6(a) — average-FCT improvement of FVDF over SRTF/FIFO/FAIR under
// three trace filterings: all flows, the largest 97%, the largest 95%.
// Paper: up to 1.31x over SRTF, 4.22x over FIFO, 4.33x over FAIR; the
// FIFO/FAIR improvements shrink slightly as small flows are filtered out.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));

  bench::print_header(
      "Fig. 6(a) - avg FCT improvement vs trace percentile",
      "Paper: FVDF up to 1.31x over SRTF, 4.22x over FIFO, 4.33x over FAIR");

  const workload::Trace full = bench::paper_like_trace(seed, 50);
  const std::vector<std::pair<std::string, double>> cuts = {
      {"all flows", 1.0}, {"97% flows", 0.97}, {"95% flows", 0.95}};

  common::Table table({"trace", "FVDF avg FCT (s)", "vs SRTF", "vs FIFO",
                       "vs FAIR"});
  for (const auto& [label, keep] : cuts) {
    const workload::Trace trace =
        keep < 1.0 ? workload::filter_smallest_flows(full, keep) : full;
    const auto runs = bench::run_all(trace, common::mbps(100), 0.9,
                                     {"FVDF", "SRTF", "FIFO", "FAIR"});
    const double fvdf = runs[0].metrics.avg_fct();
    table.add_row({label, common::fmt_double(fvdf, 2),
                   bench::improvement(runs[1].metrics.avg_fct(), fvdf),
                   bench::improvement(runs[2].metrics.avg_fct(), fvdf),
                   bench::improvement(runs[3].metrics.avg_fct(), fvdf)});
  }
  table.print(std::cout);
  std::cout << "(100 Mbps fabric, LZ4 model; paper peaks are over its Spark"
               " traces - the ordering and the shrink-with-filtering trend"
               " are the reproduced claims)\n";
  return 0;
}
