// Fig. 2 — CPU utilization records at two NIC speeds.
// Paper: >30.77% of CPU time idle at 10 Gbps; >69.23% idle at 100 Mbps:
// transfer-bound phases leave the CPU unused, more so on slow networks.
#include "bench_common.hpp"
#include "cpu/util_trace.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"horizon", "seed"});

  bench::print_header(
      "Fig. 2 - CPU utilization and idle periods vs NIC speed",
      "Paper: idle CPU time > 30.77% at 10 Gbps, > 69.23% at 100 Mbps");

  auto run = [&](common::Bps bandwidth) {
    cpu::UtilTraceConfig config;
    config.bandwidth = bandwidth;
    config.compute_time = 4.0;
    config.transfer_bytes = 1.2 * common::kGB;
    config.horizon = flags.get_double("horizon", 600.0);
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
    return cpu::generate_util_trace(config);
  };

  const auto fast = run(common::gbps(10));
  const auto slow = run(common::mbps(100));

  common::Table table({"bandwidth", "paper idle", "measured idle",
                       "mean utilization"});
  auto mean_util = [](const std::vector<cpu::UtilSample>& trace) {
    double sum = 0;
    for (const auto& s : trace) sum += s.utilization;
    return trace.empty() ? 0.0 : sum / static_cast<double>(trace.size());
  };
  table.add_row({"10 Gbps", ">30.77%",
                 common::fmt_percent(cpu::idle_fraction(fast)),
                 common::fmt_percent(mean_util(fast))});
  table.add_row({"100 Mbps", ">69.23%",
                 common::fmt_percent(cpu::idle_fraction(slow)),
                 common::fmt_percent(mean_util(slow))});
  table.print(std::cout);

  // A coarse strip chart of the first 120 s at 100 Mbps: the blank (idle)
  // stretches of Fig. 2(b).
  std::cout << "\n100 Mbps utilization strip (first 120 s, '#' busy, '.' idle):\n";
  for (std::size_t i = 0; i < slow.size() && slow[i].t < 120.0; ++i)
    std::cout << (slow[i].utilization > 0.5 ? '#' : '.');
  std::cout << '\n';
  return 0;
}
