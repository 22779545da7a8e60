// Fig. 6(e) + Table VI — CCT improvement of FVDF over six coflow
// schedulers across bandwidths. Paper: up to 1.62x over SEBF at 100 Mbps,
// 1.39x at 1 Gbps, ~1x at 10 Gbps (compression gate closes), up to 1.85x
// in the poorest network conditions.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 31));

  bench::print_header(
      "Fig. 6(e) - CCT improvement vs bandwidth (6 coflow schedulers)",
      "Paper: FVDF over SEBF 1.62x @100Mbps, 1.39x @1Gbps, ~1x @10Gbps");

  const workload::Trace trace = bench::paper_like_trace(seed, 40);
  const std::vector<std::string> names = {"FVDF", "SEBF", "SCF",
                                          "NCF",  "LCF",  "PFF", "PFP"};

  common::Table table({"bandwidth", "FVDF avg CCT (s)", "vs SEBF", "vs SCF",
                       "vs NCF", "vs LCF", "vs PFF", "vs PFP"});
  const std::vector<std::pair<std::string, common::Bps>> bandwidths = {
      {"100 Mbps", common::mbps(100)},
      {"1 Gbps", common::gbps(1)},
      {"10 Gbps", common::gbps(10)},
  };
  for (const auto& [label, bandwidth] : bandwidths) {
    const auto runs = bench::run_all(trace, bandwidth, 0.9, names);
    const double fvdf = runs[0].metrics.avg_cct();
    std::vector<std::string> row{label, common::fmt_double(fvdf, 2)};
    for (std::size_t i = 1; i < runs.size(); ++i)
      row.push_back(bench::improvement(runs[i].metrics.avg_cct(), fvdf));
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "(the @10Gbps column shows the Eq. 3 gate closing: FVDF"
               " degenerates to its pure-scheduling form)\n";
  return 0;
}
