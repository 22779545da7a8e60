// Fig. 6(c) — average-FCT improvement vs number of parallel flows.
// Paper: across three magnitudes of parallelism FVDF always outperforms
// SRTF, FIFO and FAIR.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 23));

  bench::print_header(
      "Fig. 6(c) - avg FCT improvement vs number of parallel flows",
      "Paper: FVDF outperforms SRTF/FIFO/FAIR at every parallelism level");

  common::Table table({"parallel flows", "FVDF avg FCT (s)", "vs SRTF",
                       "vs FIFO", "vs FAIR"});
  for (const std::size_t coflows : {10u, 40u, 160u}) {
    // More coflows over the same arrival window = more parallel flows; the
    // fabric grows with them so parallelism rises without drowning the
    // experiment in pure queueing overload.
    workload::GeneratorConfig gen;
    gen.num_ports = 8 + coflows / 4;
    gen.num_coflows = coflows;
    gen.mean_interarrival = 20.0 / static_cast<double>(coflows);
    gen.size_lo = 1e5;
    gen.size_hi = 3e8;
    gen.size_alpha = 0.15;
    gen.width_lo = 1;
    gen.width_hi = 5;
    gen.seed = seed;
    const workload::Trace trace = workload::generate_trace(gen);
    const auto runs = bench::run_all(trace, common::mbps(100), 0.9,
                                     {"FVDF", "SRTF", "FIFO", "FAIR"});
    const double fvdf = runs[0].metrics.avg_fct();
    table.add_row({common::fmt_int(static_cast<double>(trace.total_flows())),
                   common::fmt_double(fvdf, 2),
                   bench::improvement(runs[1].metrics.avg_fct(), fvdf),
                   bench::improvement(runs[2].metrics.avg_fct(), fvdf),
                   bench::improvement(runs[3].metrics.avg_fct(), fvdf)});
  }
  table.print(std::cout);
  return 0;
}
