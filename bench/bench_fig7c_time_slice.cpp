// Fig. 7(c) — CDF of CCT under different scheduling-slice lengths.
// Paper: O(10 ms) slices complete >48.63% of coflows within the first
// stretch; O(1 s) slices delay most completions (stale decisions), pushing
// the CDF right and inflating average CCT. Swallow defaults to 10 ms.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 53));

  bench::print_header(
      "Fig. 7(c) - CCT CDF vs scheduling-slice length",
      "Paper: average CCT grows with slice length; 10 ms is the default");

  const cpu::ConstantCpu cpu(0.9);

  common::Table table({"slice", "avg CCT (s)", "p25 (s)", "p50 (s)",
                       "p75 (s)", "p95 (s)"});
  for (const double slice : {0.01, 0.05, 0.2, 1.0}) {
    // Average the statistics over several seeds: per-trace scheduling luck
    // otherwise masks the staleness penalty the figure is about.
    double avg = 0, p25 = 0, p50 = 0, p75 = 0, p95 = 0;
    const std::vector<std::uint64_t> seeds = {seed, seed + 1, seed + 2};
    for (const std::uint64_t s : seeds) {
      // Gigabit fabric: typical CCTs sit near the longest slices, so the
      // staleness penalty is visible instead of drowned in queueing.
      const workload::Trace trace = bench::paper_like_trace(s, 30);
      const fabric::Fabric fabric(trace.num_ports, common::gbps(1));
      auto sched = sim::make_scheduler("FVDF");
      sim::SimConfig config;
      config.slice = slice;
      config.codec = &codec::default_codec_model();
      // The paper's slotted CCT accounting (see SimConfig docs).
      config.quantize_completions = true;
      const sim::Metrics m =
          run_simulation(trace, fabric, cpu, *sched, config);
      const auto cdf = m.cct_cdf();
      avg += m.avg_cct();
      p25 += cdf.quantile(0.25);
      p50 += cdf.quantile(0.50);
      p75 += cdf.quantile(0.75);
      p95 += cdf.quantile(0.95);
    }
    const auto n = static_cast<double>(seeds.size());
    table.add_row({common::fmt_double(slice * 1000.0, 0) + " ms",
                   common::fmt_double(avg / n, 2),
                   common::fmt_double(p25 / n, 2),
                   common::fmt_double(p50 / n, 2),
                   common::fmt_double(p75 / n, 2),
                   common::fmt_double(p95 / n, 2)});
  }
  table.print(std::cout);
  std::cout << "(slotted completion accounting as in the paper's simulator;"
               " long slices push the CDF right, inflating average CCT)\n";
  return 0;
}
