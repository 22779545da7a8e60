// Table VII / Fig. 7(b) — data traffic with and without Swallow at three
// workload scales. Paper: large 2.4 GB -> 1,278.6 MB (46.73%), huge
// 25.7 GB -> 12.9 GB (49.81%), gigantic 2.65 TB -> 1.36 TB (48.68%);
// 48.41% average reduction. Byte volumes are scaled down 1024x (the
// runtime moves real bytes); the reductions are scale-free.
#include "bench_common.hpp"
#include "workload/apps.hpp"
#include "runtime/shuffle.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"scale_down"});
  const double scale_down = flags.get_double("scale_down", 16384.0);

  bench::print_header(
      "Table VII / Fig. 7(b) - data traffic with and without Swallow",
      "Paper: 46.73% / 49.81% / 48.68% reduction; 48.41% on average");

  struct Scale {
    const char* name;
    double paper_without_bytes;
    const char* paper_reduction;
  };
  const Scale scales[] = {
      {"large", 2.4 * common::kGB, "46.73%"},
      {"huge", 25.7 * common::kGB, "49.81%"},
      {"gigantic", 2.65 * common::kTB, "48.68%"},
  };

  runtime::ClusterConfig base;
  base.num_workers = 6;
  // NIC below R*(1-xi) so the Eq. 3 gate stays open (compression worth it).
  base.nic_rate = 128.0 * 1024 * 1024;
  base.codec_model =
      codec::CodecModel{"swlz", 500.0 * common::kMB, 1500.0 * common::kMB,
                        0.45};

  common::Table table({"Workload scale", "Without Swallow", "With Swallow",
                       "paper reduction", "measured reduction"});
  double total_reduction = 0;
  for (const Scale& scale : scales) {
    const auto total_bytes =
        static_cast<std::size_t>(scale.paper_without_bytes / scale_down);
    // One equal-sized job per HiBench application (the paper runs the
    // whole suite; equal weighting keeps Terasort's extreme ratio from
    // dominating the average).
    const auto& apps = codec::table1_apps();
    std::size_t wire = 0, raw = 0;
    runtime::Cluster cluster(base);
    for (const auto& app : apps) {
      runtime::ShuffleJobConfig job;
      job.app = app;
      job.mappers = 2;
      job.reducers = 2;
      job.bytes_per_partition = std::max<std::size_t>(
          4096, total_bytes / (apps.size() * 4));
      job.seed = 3;
      const auto report = runtime::run_shuffle_job(cluster, job);
      wire += report.wire_bytes;
      raw += report.raw_bytes;
    }
    const double reduction = 1.0 - static_cast<double>(wire) / raw;
    total_reduction += reduction;
    table.add_row({scale.name, common::fmt_bytes(static_cast<double>(raw)),
                   common::fmt_bytes(static_cast<double>(wire)),
                   scale.paper_reduction, common::fmt_percent(reduction)});
  }
  table.print(std::cout);
  std::cout << "average measured reduction: "
            << common::fmt_percent(total_reduction / 3.0)
            << " (paper 48.41%); volumes scaled down " << scale_down
            << "x, reduction percentages are scale-free\n";
  return 0;
}
