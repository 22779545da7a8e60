// Trace analysis CLI: prints the Fig. 1-style distributional statistics of
// a coflow trace — our text format, the Facebook coflow-benchmark format,
// or a freshly generated synthetic trace.
//
//   ./trace_stats --trace=/path/to/trace.txt
//   ./trace_stats --fb_trace=/path/to/FB2010-1Hr-150-0.txt
//   ./trace_stats --flows=20000                 (synthetic Fig. 1 preset)
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "workload/generator.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv, {"fb_trace", "flows", "seed", "trace"});

  workload::Trace trace;
  if (flags.has("trace")) {
    trace = workload::parse_trace_file(flags.get("trace", ""));
  } else if (flags.has("fb_trace")) {
    trace = workload::parse_facebook_trace_file(flags.get("fb_trace", ""));
  } else {
    trace = workload::generate_fig1_trace(
        static_cast<std::size_t>(flags.get_int("flows", 20000)),
        static_cast<std::uint64_t>(flags.get_int("seed", 42)));
  }

  const workload::TraceStats stats = workload::compute_stats(trace);
  std::cout << trace.coflows.size() << " coflows, " << stats.num_flows
            << " flows, " << common::fmt_bytes(stats.total_bytes)
            << " over " << trace.num_ports << " ports\n\n";

  common::Table sizes({"flow size <=", "CDF of flows", "CDF of bytes"});
  for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = stats.flow_sizes.quantile(q);
    sizes.add_row({common::fmt_bytes(v),
                   common::fmt_percent(stats.count_fraction_below(v)),
                   common::fmt_percent(1.0 - stats.byte_fraction_above(v))});
  }
  sizes.print(std::cout);

  common::Table shape({"metric", "value"});
  shape.add_row({"median coflow width",
                 common::fmt_double(stats.coflow_widths.quantile(0.5), 0)});
  shape.add_row({"max coflow width",
                 common::fmt_double(stats.coflow_widths.max(), 0)});
  shape.add_row({"median coflow bytes",
                 common::fmt_bytes(stats.coflow_sizes.quantile(0.5))});
  shape.add_row({"max coflow bytes",
                 common::fmt_bytes(stats.coflow_sizes.max())});
  shape.add_row({"bytes from flows > 10 GB",
                 common::fmt_percent(
                     stats.byte_fraction_above(10 * common::kGB))});
  std::cout << '\n';
  shape.print(std::cout);
  return 0;
}
