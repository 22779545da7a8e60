// Runs the full HiBench-like application suite (the 11 Table I apps)
// through the in-process runtime twice — with and without Swallow's
// compression — printing per-application JCT and traffic, a miniature of
// the paper's deployment evaluation.
//
//   ./hibench_suite [--partition_kb=64] [--nic_mib=24]
//                   [--fault-rate=0.01] [--fault-seed=1]
#include <iostream>

#include "codec/synth_data.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "runtime/shuffle.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv,
      {"fault-rate", "fault-seed", "nic_mib", "partition_kb"});
  const auto partition = static_cast<std::size_t>(
      flags.get_int("partition_kb", 384) * 1024);
  const double nic =
      flags.get_double("nic_mib", 24.0) * 1024 * 1024;

  runtime::ClusterConfig base;
  base.num_workers = 6;
  base.nic_rate = nic;
  base.codec_model = codec::CodecModel{"swlz", 500.0 * common::kMB,
                                       1500.0 * common::kMB, 0.45};
  // Optional adversity: --fault-rate drops/corrupts/stalls/fails blocks
  // with that per-block probability (deterministic in --fault-seed); the
  // suite then also reports the recovery work each run needed.
  const double fault_rate = flags.get_double("fault-rate", 0.0);
  if (fault_rate > 0) {
    base.fault.enabled = true;
    base.fault.set_uniform_rate(fault_rate);
    base.fault.stall_duration = 0.02;
    base.fault.seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
    base.retry.pull_timeout = 0.25;
  }

  std::cout << "HiBench-like suite on a " << base.num_workers
            << "-worker cluster, " << flags.get_double("nic_mib", 24.0)
            << " MiB/s NICs, " << partition / 1024
            << " KiB partitions per mapper/reducer pair";
  if (fault_rate > 0)
    std::cout << ", " << common::fmt_percent(fault_rate)
              << " per-block fault rate";
  std::cout << "\n\n";

  common::Table table({"Application", "JCT plain (s)", "JCT swallow (s)",
                       "speedup", "traffic reduction", "verified"});
  double total_plain = 0, total_swallow = 0;
  std::size_t total_retries = 0, total_retransmits = 0, total_degraded = 0;
  for (const auto& app : codec::table1_apps()) {
    runtime::ShuffleJobConfig job;
    job.app = app;
    job.mappers = 3;
    job.reducers = 2;
    job.bytes_per_partition = partition;

    runtime::ClusterConfig on = base;
    runtime::ClusterConfig off = base;
    off.smart_compress = false;
    runtime::Cluster with_swallow(on), without(off);
    const auto compressed = runtime::run_shuffle_job(with_swallow, job);
    const auto plain = runtime::run_shuffle_job(without, job);
    total_plain += plain.jct;
    total_swallow += compressed.jct;
    total_retries += compressed.retries;
    total_retransmits += compressed.retransmits;
    total_degraded += compressed.degraded_flows;
    table.add_row({app.name, common::fmt_double(plain.jct, 2),
                   common::fmt_double(compressed.jct, 2),
                   common::fmt_speedup(plain.jct / compressed.jct),
                   common::fmt_percent(compressed.traffic_reduction()),
                   compressed.verified && plain.verified ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nsuite total: " << common::fmt_double(total_plain, 2)
            << " s plain vs " << common::fmt_double(total_swallow, 2)
            << " s with Swallow ("
            << common::fmt_speedup(total_plain / total_swallow) << ")\n";
  if (fault_rate > 0)
    std::cout << "recovery work (with-Swallow runs): " << total_retries
              << " retries, " << total_retransmits << " retransmits, "
              << total_degraded << " degraded flows — all payloads verified\n";
  return 0;
}
