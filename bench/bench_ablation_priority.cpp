// Ablation — the priority-class upgrade (Pseudocode 3, logbase 1.2).
// A large coflow shares ports with a persistent stream of small coflows.
// Without the upgrade, FVDF keeps preempting the large coflow (tail CCT
// explodes); with it the large coflow is served after bounded waiting,
// while the mean barely moves.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"small_coflows"});
  const auto small_coflows =
      static_cast<std::size_t>(flags.get_int("small_coflows", 150));

  bench::print_header(
      "Ablation - starvation freedom via priority upgrade",
      "FVDF vs FVDF-NOUPGRADE on a large coflow behind a small-coflow"
      " stream");

  workload::Trace trace;
  trace.num_ports = 2;
  workload::CoflowSpec big;
  big.id = 0;
  big.job = 0;
  big.arrival = 0;
  big.flows = {{0, 1, 5e7, false, 0}};
  trace.coflows.push_back(big);
  for (std::size_t i = 1; i <= small_coflows; ++i) {
    workload::CoflowSpec small;
    small.id = i;
    small.job = i;
    small.arrival = 0.2 * static_cast<double>(i);
    small.flows = {{0, 1, 4e6, false, 0}};
    trace.coflows.push_back(small);
  }

  common::Table table({"variant", "large-coflow CCT (s)", "avg CCT (s)",
                       "p99 CCT (s)"});
  for (const char* name : {"FVDF-NC", "FVDF-NOUPGRADE"}) {
    const auto runs = bench::run_all(trace, common::mbps(200), 0.0, {name},
                                     nullptr);
    const auto& m = runs[0].metrics;
    table.add_row({runs[0].name,
                   common::fmt_double(m.coflows.front().cct(), 2),
                   common::fmt_double(m.avg_cct(), 2),
                   common::fmt_double(m.cct_cdf().quantile(0.99), 2)});
  }
  table.print(std::cout);
  std::cout << "(FVDF-NC = upgrade on, compression off, isolating the"
               " aging effect)\n";
  return 0;
}
