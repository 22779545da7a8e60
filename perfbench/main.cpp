// swbench: end-to-end benchmark program (see perfbench/README.md).
//
//   swbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --work-dir <dir> [--revision <rev>]
//
// Prints a host-context JSON line, then (last line) the result object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones; the traced run also
// writes its spans to <work-dir>/spans-<workload>-<seed>.json. Exits 1 when
// any correctness check failed, 2 on bad arguments.
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>

#include "bench.hpp"

namespace {

using namespace swbench;

struct Declared {
  const char* name;
  const char* unit;
};

// The metric names and units of BENCHMARK.json; run.py checks the two
// lists agree. A workload that does not exercise a layer reports 0 for it.
constexpr Declared kEndToEnd[] = {
    {"wall_s", "s"},           {"cct_avg_s", "s"},
    {"cct_p50_s", "s"},        {"cct_tail_s", "s"},
    {"goodput_MBps", "MB/s"},  {"traffic_reduction", "fraction"},
    {"deadline_met_frac", "fraction"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

constexpr Declared kPerLayer[] = {
    {"sched.rounds", "count"},
    {"sched.busy_s", "s"},
    {"sched.share", "fraction"},
    {"sched.round_us_p50", "us"},
    {"sched.round_us_p99", "us"},
    {"engine.self_s", "s"},
    {"engine.share", "fraction"},
    {"engine.us_per_round", "us"},
    {"engine.cpu_headroom_calls", "count"},
    {"recovery.snapshots", "count"},
    {"recovery.snapshot_bytes", "bytes"},
    {"recovery.journal_bytes", "bytes"},
    {"recovery.journal_records", "count"},
    {"recovery.overhead_s", "s"},
    {"recovery.share", "fraction"},
    {"slo.admitted", "count"},
    {"slo.deferred", "count"},
    {"slo.rejected", "count"},
    {"slo.shed", "count"},
    {"fabric.capacity_changes", "count"},
    {"fabric.stalled_flow_slices", "count"},
    {"master.calls", "count"},
    {"master.sched_us_p50", "us"},
    {"master.share", "fraction"},
    {"push.ms_p50", "ms"},
    {"push.ms_p99", "ms"},
    {"pull.ms_p50", "ms"},
    {"pull.ms_p99", "ms"},
    {"codec.encode_MBps", "MB/s"},
    {"codec.decode_MBps", "MB/s"},
    {"codec.ratio", "fraction"},
    {"codec.encode_share", "fraction"},
    {"codec.decode_share", "fraction"},
    {"codec.ledger_encode_MBps", "MB/s"},
    {"codec.chunks_encoded", "count"},
    {"codec.chunks_decoded", "count"},
    {"payload.reuse_factor", "x"},
    {"wire.bytes", "bytes"},
    {"wire.floor_s", "s"},
    {"wire.share", "fraction"},
    {"gate.evictions", "count"},
    {"rt.retries", "count"},
    {"rt.pull_timeouts", "count"},
    {"rt.corrupt_frames", "count"},
    {"cct.samples", "count"},
    {"trace.overhead_frac", "fraction"},
    {"trace.spans", "count"},
};

int usage(const std::string& why) {
  std::cerr << "swbench: " << why
            << "\nusage: swbench --workload <sim-fvdf-dense|sim-slo-ckpt|"
               "shuffle-codec|shuffle-wire> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--revision <rev>]\n";
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

/// Orders the workload's metrics by the declared list, fills layers the
/// workload did not exercise with 0, and rejects undeclared names.
template <std::size_t N>
bool project(const Declared (&declared)[N], Report& report) {
  std::map<std::string, Metric> got;
  for (const Metric& m : report.metrics) got[m.name] = m;
  std::vector<Metric> out;
  for (const Declared& d : declared) {
    const auto it = got.find(d.name);
    if (it == got.end()) {
      out.push_back({d.name, 0.0, d.unit});
      continue;
    }
    if (it->second.unit != d.unit) {
      std::cerr << "swbench: metric " << d.name << " has unit "
                << it->second.unit << ", declared " << d.unit << "\n";
      return false;
    }
    out.push_back(it->second);
    got.erase(it);
  }
  for (const auto& [name, m] : got) {
    std::cerr << "swbench: undeclared metric " << name << "\n";
    return false;
  }
  report.metrics = std::move(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string revision;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (key == "--work-dir") {
        opt.work_dir = value;
        have_dir = true;
      } else if (key == "--revision") {
        revision = value;
      } else {
        return usage("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key);
    }
  }
  if (!have_workload || !have_dir) return usage("--workload and --work-dir");
  if (!is_sim_workload(opt.workload) && !is_shuffle_workload(opt.workload))
    return usage("unknown workload " + opt.workload);
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(opt.work_dir);

  const HostContext host = probe_host(revision);
  std::cout << "{\"context\":" << host_json(host) << "}\n";

  SpanLog span_log;
  if (opt.trace) set_spans(&span_log);
  Report report;
  try {
    report = is_sim_workload(opt.workload) ? run_sim_workload(opt)
                                           : run_shuffle_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "swbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  set_spans(nullptr);
  if (opt.trace) {
    report.add("trace.spans", static_cast<double>(span_log.size()), "count");
    const auto path = opt.work_dir / ("spans-" + opt.workload + "-" +
                                      std::to_string(opt.seed) + ".json");
    span_log.write_chrome(path, host_json(host));
    std::cerr << "swbench: spans written to " << path.string() << "\n";
  }
  const bool ok = opt.trace ? project(kPerLayer, report)
                            : project(kEndToEnd, report);
  if (!ok) return 1;

  for (const std::string& v : report.violations)
    std::cerr << "swbench: check failed: " << v << "\n";

  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return report.correct ? 0 : 1;
}
