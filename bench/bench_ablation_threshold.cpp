// Ablation — the Eq. 3 compression gate (R*(1-xi) > B) vs compressing
// blindly. At slow networks the gate and blind compression agree; at
// 10 Gbps blind compression stalls flows behind the compressor while the
// gate correctly ships raw bytes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 61));

  bench::print_header(
      "Ablation - Eq. 3 compression gate vs always-compress",
      "Gate matters at 10 Gbps where compression cannot keep up with the"
      " wire");

  const workload::Trace trace = bench::paper_like_trace(seed, 40);

  common::Table table({"bandwidth", "policy", "avg CCT (s)",
                       "traffic reduction"});
  const std::vector<std::pair<std::string, common::Bps>> bandwidths = {
      {"100 Mbps", common::mbps(100)}, {"10 Gbps", common::gbps(10)}};
  for (const auto& [label, bandwidth] : bandwidths) {
    for (const char* name : {"FVDF", "FVDF-BLIND"}) {
      const auto runs = bench::run_all(trace, bandwidth, 0.9, {name});
      table.add_row({label,
                     std::string(name) == "FVDF" ? "Eq. 3 gate"
                                                 : "always compress",
                     common::fmt_double(runs[0].metrics.avg_cct(), 2),
                     common::fmt_percent(runs[0].metrics.traffic_reduction())});
    }
  }
  table.print(std::cout);
  std::cout << "(FVDF-BLIND sets beta = 1 whenever raw compressible bytes"
               " remain, still paying the real LZ4 speed; at 10 Gbps the"
               " compressor cannot keep up with the wire)\n";
  return 0;
}
