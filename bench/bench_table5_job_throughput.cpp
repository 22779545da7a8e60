// Table V — job throughput per time unit for FVDF/FAIR/FIFO/SRTF.
// Paper: cumulative jobs completed over six 2000-second units plus
// MAX/MIN/AVG jobs-per-second; FVDF and SRTF race ahead early (shortest
// first) and FVDF ends with the most completed jobs.
// Scale note: we use 10-flow jobs as in the paper but 6 units of 60 s on a
// proportionally smaller trace, preserving the shape (see DESIGN.md).
#include "bench_common.hpp"
#include "workload/jobs.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed", "unit_seconds"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 41));
  const double unit = flags.get_double("unit_seconds", 60.0);

  bench::print_header(
      "Table V - job throughput per time unit",
      "Paper: cumulative completed jobs over 6 units + MAX/MIN/AVG rates;"
      " FVDF ends highest, FIFO/FAIR ramp slowly");

  workload::Trace trace = bench::paper_like_trace(seed, 120, 12, 4);
  // Paper: "each job contains 10 flows".
  workload::group_into_jobs(trace, 10);

  common::Table table({"Algorithm", "U1", "U2", "U3", "U4", "U5", "U6",
                       "MAX", "MIN", "AVG"});
  for (const char* name : {"FVDF", "FAIR", "FIFO", "SRTF"}) {
    const auto runs =
        bench::run_all(trace, common::mbps(100), 0.9, {name});
    const auto cumulative = runs[0].metrics.cumulative_jobs_per_unit(unit, 6);
    std::vector<std::string> row{name};
    double max_rate = 0, min_rate = 1e18;
    std::size_t prev = 0;
    for (const std::size_t c : cumulative) {
      row.push_back(common::fmt_int(static_cast<double>(c)));
      const double rate = static_cast<double>(c - prev) / unit;
      max_rate = std::max(max_rate, rate);
      min_rate = std::min(min_rate, rate);
      prev = c;
    }
    row.push_back(common::fmt_double(max_rate, 2));
    row.push_back(common::fmt_double(min_rate, 2));
    row.push_back(common::fmt_double(
        static_cast<double>(cumulative.back()) / (unit * 6.0), 2));
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "(time unit " << unit << " s; paper used 2000 s units on its"
               " cluster-scale trace - shape, not absolute counts, is the"
               " reproduced claim)\n";
  return 0;
}
