// Extension — information-agnostic scheduling (Aalo / D-CLAS, the paper's
// reference [16]) vs clairvoyant SEBF and FVDF. Not a paper artifact; it
// answers the obvious follow-up: how much of FVDF's win needs prior size
// knowledge, and does compression help an agnostic scheduler's regime too?
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 71));

  bench::print_header(
      "Extension - info-agnostic (Aalo) vs clairvoyant (SEBF/FVDF)",
      "Aalo needs no flow sizes; FVDF adds compression on top of"
      " clairvoyance");

  const workload::Trace trace = bench::paper_like_trace(seed, 40);
  common::Table table({"bandwidth", "scheduler", "avg CCT (s)",
                       "normalized CCT", "vs AALO"});
  for (const auto& [label, bandwidth] :
       std::vector<std::pair<std::string, common::Bps>>{
           {"100 Mbps", common::mbps(100)}, {"1 Gbps", common::gbps(1)}}) {
    const auto runs =
        bench::run_all(trace, bandwidth, 0.9,
                       {"AALO", "SINCRONIA", "SEBF", "FVDF"});
    const double aalo = runs[0].metrics.avg_cct();
    for (const auto& run : runs) {
      table.add_row({label, run.name,
                     common::fmt_double(run.metrics.avg_cct(), 2),
                     common::fmt_double(run.metrics.avg_normalized_cct(), 2),
                     bench::improvement(aalo, run.metrics.avg_cct())});
    }
  }
  table.print(std::cout);
  std::cout << "(normalized CCT = CCT over the coflow's isolation bound;"
               " 1.00 is unimprovable)\n";
  return 0;
}
