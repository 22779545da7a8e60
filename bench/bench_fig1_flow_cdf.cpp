// Fig. 1 — flow properties of the workload substrate.
// Paper: (a) 89.49% of flows are smaller than 10 GB, most flows live in
// [10 MB, 10 GB]; (b) flows larger than 10 GB create >93.03% of the bytes.
#include "bench_common.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"flows", "seed"});
  const auto flows = static_cast<std::size_t>(flags.get_int("flows", 20000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  bench::print_header(
      "Fig. 1 - CDF of flow sizes (counts and bytes)",
      "Paper: 89.49% of flows < 10 GB; flows > 10 GB carry 93.03% of bytes");

  const workload::Trace trace = workload::generate_fig1_trace(flows, seed);
  const workload::TraceStats stats = workload::compute_stats(trace);

  common::Table cdf({"flow size", "CDF of flows (a)", "CDF of bytes (b)"});
  for (const double size :
       {100 * common::kKB, common::kMB, 10 * common::kMB, 100 * common::kMB,
        common::kGB, 10 * common::kGB, 100 * common::kGB}) {
    cdf.add_row({common::fmt_bytes(size),
                 common::fmt_percent(stats.count_fraction_below(size)),
                 common::fmt_percent(1.0 - stats.byte_fraction_above(size))});
  }
  cdf.print(std::cout);

  common::Table summary({"metric", "paper", "measured"});
  summary.add_row({"flows < 10 GB", "89.49%",
                   common::fmt_percent(
                       stats.count_fraction_below(10 * common::kGB))});
  summary.add_row({"bytes from flows > 10 GB", "93.03%",
                   common::fmt_percent(
                       stats.byte_fraction_above(10 * common::kGB))});
  std::cout << '\n';
  summary.print(std::cout);
  std::cout << "(" << stats.num_flows << " flows, "
            << common::fmt_bytes(stats.total_bytes) << " total)\n";
  return 0;
}
