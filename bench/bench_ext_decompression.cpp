// Extension — does ignoring decompression cost (as the paper does,
// Section IV-A1: "we omit the time consumption of decompression") change
// the results? We re-run the Fig. 6(f) sweep with receiver-side decoding
// charged at each codec's Table II decompression speed, serialized after
// the last byte (a conservative, non-pipelined model).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 31));

  bench::print_header(
      "Extension - receiver-side decompression cost",
      "Paper omits it; this quantifies the omission per Table II codec");

  const workload::Trace trace = bench::paper_like_trace(seed, 40);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);

  common::Table table({"format", "decode speed", "avg CCT, free decode (s)",
                       "avg CCT, charged (s)", "penalty"});
  for (const auto& model : codec::table2_codecs()) {
    auto run = [&](bool charge) {
      auto sched = sim::make_scheduler("FVDF");
      sim::SimConfig config;
      config.codec = &model;
      config.model_decompression = charge;
      return sim::run_simulation(trace, fabric, cpu, *sched, config)
          .avg_cct();
    };
    const double free_decode = run(false);
    const double charged = run(true);
    table.add_row({model.name,
                   common::fmt_int(model.decompress_speed / common::kMB) +
                       " MB/s",
                   common::fmt_double(free_decode, 2),
                   common::fmt_double(charged, 2),
                   common::fmt_percent(charged / free_decode - 1.0)});
  }
  table.print(std::cout);
  std::cout << "(at 100 Mbps every Table II codec decodes orders of"
               " magnitude faster than the wire delivers, so the paper's"
               " omission costs <2% - the claim our test suite asserts)\n";
  return 0;
}
