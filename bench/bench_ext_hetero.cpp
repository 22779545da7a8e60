// Extension — heterogeneous fabrics. The paper's Section II notes real
// datacenters mix 100 Mbps to 10 Gbps machines; its evaluation only sweeps
// uniform fabrics. Here half the machines are 10x faster: FVDF's per-flow
// Eq. 3 gate turns compression on only for flows whose bottleneck port is
// slow, which a global on/off switch cannot do.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 97));

  bench::print_header(
      "Extension - mixed-speed fabric (half 100 Mbps, half 10 Gbps)",
      "Per-flow Eq. 3 gating compresses only where the slow NICs bind");

  const workload::Trace trace = bench::paper_like_trace(seed, 40);
  std::vector<common::Bps> caps(trace.num_ports);
  for (std::size_t p = 0; p < caps.size(); ++p)
    caps[p] = p % 2 == 0 ? common::mbps(100) : common::gbps(10);
  const fabric::Fabric fabric(caps, caps);
  const cpu::ConstantCpu cpu(0.9);

  common::Table table({"scheduler", "avg CCT (s)", "avg FCT (s)",
                       "traffic reduction"});
  for (const char* name : {"FVDF", "FVDF-BLIND", "FVDF-NC", "SEBF", "PFF"}) {
    auto sched = sim::make_scheduler(name);
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    const sim::Metrics m =
        run_simulation(trace, fabric, cpu, *sched, config);
    table.add_row({name, common::fmt_double(m.avg_cct(), 2),
                   common::fmt_double(m.avg_fct(), 2),
                   common::fmt_percent(m.traffic_reduction())});
  }
  table.print(std::cout);
  std::cout << "(FVDF's reduction sits between 0 and the uniform-fabric"
               " ~38%: only slow-bottleneck flows compress. FVDF-BLIND"
               " compresses everything regardless)\n";
  return 0;
}
