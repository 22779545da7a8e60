// Ablation — work-conserving backfill in SEBF and FVDF.
// Admitting only the head coflow's MADD rates leaves port capacity idle;
// the backfill pass hands it to the queued coflows. This bench quantifies
// the CCT and utilization cost of turning it off.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 61));

  bench::print_header(
      "Ablation - work-conserving backfill",
      "SEBF and FVDF with and without the residual-capacity pass");

  const workload::Trace trace = bench::paper_like_trace(seed, 40);
  common::Table table(
      {"variant", "avg CCT (s)", "avg FCT (s)", "makespan (s)"});
  for (const char* name :
       {"SEBF", "SEBF-NOBACKFILL", "FVDF-NC", "FVDF-NOBACKFILL"}) {
    const auto runs =
        bench::run_all(trace, common::mbps(100), 0.0, {name}, nullptr);
    const auto& m = runs[0].metrics;
    table.add_row({runs[0].name, common::fmt_double(m.avg_cct(), 2),
                   common::fmt_double(m.avg_fct(), 2),
                   common::fmt_double(m.makespan(), 2)});
  }
  table.print(std::cout);
  return 0;
}
