// Table VIII — garbage-collection time of map/reduce stages with and
// without compression. Paper: JVM GC time falls when compression shrinks
// the live transfer buffers. Our analog: buffer-pool reclamation time
// (scrub + free of transfer buffers) per stage, reported at 25/50/75/100%
// job progress like the paper's columns.
#include "bench_common.hpp"
#include "runtime/shuffle.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {});

  bench::print_header(
      "Table VIII - buffer reclamation time (GC-time analog), map/reduce",
      "Paper: GC time in both stages drops with coflow compression (-c)");

  runtime::ClusterConfig base;
  base.num_workers = 6;
  // NIC below R*(1-xi): the Eq. 3 gate stays open for the -c rows.
  base.nic_rate = 128.0 * 1024 * 1024;
  base.codec_model = codec::CodecModel{"swlz", 500.0 * common::kMB,
                                       1500.0 * common::kMB, 0.45};

  struct Scale {
    const char* name;
    std::size_t partition_bytes;
  };
  const Scale scales[] = {
      {"large", 64 * 1024}, {"huge", 256 * 1024}, {"gigantic", 1024 * 1024}};

  common::Table table({"Workload (progress ->)", "25%", "50%", "75%", "100%"});
  for (const Scale& scale : scales) {
    for (const bool compress : {true, false}) {
      runtime::ClusterConfig config = base;
      config.smart_compress = compress;
      runtime::Cluster cluster(config);
      runtime::ShuffleJobConfig job;
      job.app = codec::app_by_name("Sort");
      job.mappers = 4;
      job.reducers = 4;
      job.bytes_per_partition = scale.partition_bytes;

      // Four identical quarters emulate the paper's progress columns.
      std::vector<std::string> row{std::string(scale.name) +
                                   (compress ? "-c" : "")};
      double map_cum = 0, reduce_cum = 0;
      for (int quarter = 0; quarter < 4; ++quarter) {
        job.seed = static_cast<std::uint64_t>(quarter + 1);
        const auto report = runtime::run_shuffle_job(cluster, job);
        map_cum += report.map_pool.reclaim_time;
        reduce_cum += report.reduce_pool.reclaim_time;
        row.push_back(common::fmt_double(map_cum * 1000.0, 2) + "ms/" +
                      common::fmt_double(reduce_cum * 1000.0, 2) + "ms");
      }
      table.add_row(row);
    }
  }
  table.print(std::cout);
  std::cout << "(cells are cumulative map/reduce buffer reclaim time; -c ="
               " compression on. Reduce-side buffers shrink by the codec"
               " ratio, so the -c rows reclaim less)\n";
  return 0;
}
