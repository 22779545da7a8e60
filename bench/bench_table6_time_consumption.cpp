// Table VI — average CCT and job duration of the coflow schedulers.
// Paper (ms): FVDF 79,913 / 639,304; SEBF 111,809 / 894,472; SCF-NCF-LCF
// ~136,629 / 1,093,032; PFF-FAIR 195,064 / 1,560,512; PFP 225,296 /
// 1,802,368 — i.e. FVDF < SEBF < SCF/NCF/LCF < PFF < PFP on CCT.
#include "bench_common.hpp"
#include "workload/jobs.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 41));

  bench::print_header(
      "Table VI - avg CCT and job duration per scheduler",
      "Paper ordering on CCT: FVDF < SEBF < SCF/NCF/LCF < PFF/FAIR < PFP");

  // Wide shuffles (width up to 8) expose PFP's coflow-blindness: per-flow
  // SRTF finishes some flows early but the coflow waits for the last one.
  workload::Trace trace = bench::paper_like_trace(seed, 60, 12, 8);
  workload::group_into_jobs(trace, 10);

  struct Row {
    const char* name;
    const char* paper_cct;
    const char* paper_duration;
  };
  const Row rows[] = {
      {"FVDF", "79,913", "639,304"},   {"SEBF", "111,809", "894,472"},
      {"SCF", "136,629", "1,093,032"}, {"NCF", "136,629", "1,093,032"},
      {"LCF", "136,629", "1,093,032"}, {"PFF", "195,064", "1,560,512"},
      {"PFP", "225,296", "1,802,368"},
  };

  common::Table table({"Algorithm", "paper AVG CCT (ms)",
                       "measured AVG CCT (ms)", "paper job duration (ms)",
                       "measured AVG JCT (ms)"});
  for (const Row& row : rows) {
    const auto runs = bench::run_all(trace, common::mbps(100), 0.9,
                                     {row.name});
    table.add_row({row.name, row.paper_cct,
                   common::fmt_int(runs[0].metrics.avg_cct() * 1000.0),
                   row.paper_duration,
                   common::fmt_int(runs[0].metrics.avg_jct() * 1000.0)});
  }
  table.print(std::cout);
  std::cout << "(smaller trace than the paper's cluster; compare ordering"
               " and relative gaps, not absolute milliseconds)\n";
  return 0;
}
