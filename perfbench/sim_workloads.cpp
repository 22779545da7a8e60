// Simulation workloads: generated coflow traces replayed through
// sim::run_simulation.
//
//   sim-fvdf-dense  FVDF, incremental scheduling, no persistence: the
//                   scheduler's decision per event bounds the replay.
//   sim-slo-ckpt    DEADLINE-FVDF with admission on a degrading fabric,
//                   journal + a snapshot every 64 rounds: the same engine
//                   with file writes beside the compute.
//
// Untraced runs replay the bare scheduler and CPU provider. The traced run
// alternates a bare replay with a decorated one (TimedScheduler +
// CountingCpu) and, for sim-slo-ckpt, a replay without a recovery dir, so
// every layer share is taken against a paired replay of the same trace.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>

#include <unistd.h>

#include "bench.hpp"
#include "codec/codec_model.hpp"
#include "recovery/journal.hpp"
#include "sim/experiment.hpp"

namespace swbench {

namespace {

namespace sw = swallow;
namespace fs = std::filesystem;

/// Trace shape. The generator keeps every seed's trace statistically alike
/// so that run-to-run spread measures the program, not the input:
///  - sizes, widths, gaps, compressibility and deadline slacks are
///    stratified draws (draw i of n in stratum i, then shuffled); sizes
///    sit at the stratum midpoints, the others at a seeded point inside;
///  - sizes are stratified per block of `block` consecutive arrivals, so
///    every stretch of the trace carries the same heavy-tailed size mix;
///  - senders and receivers go to the least-loaded ports so far (ties in
///    seeded random order), as a placement-aware cluster manager would.
/// The seed changes the arrangement: which coflow gets which size, order
/// within blocks, port choices, flow skew and deadlines.
struct TraceShape {
  std::size_t ports = 64;
  std::size_t coflows = 2000;
  std::size_t block = 100;
  double mean_interarrival = 0.05;
  double size_lo = 1e5, size_hi = 1e9, size_alpha = 0.15;
  std::size_t width_hi = 6;
  double compressible_fraction = 0.95;
  double deadline_fraction = 0;
  double deadline_ref_bps = 0;
  double slack_lo = 1.5, slack_hi = 4.0;
};

struct SimSpec {
  std::string name;
  TraceShape shape;
  double bandwidth_mbps = 100;
  double cpu_headroom = 0.9;
  std::string scheduler = "FVDF";
  bool admission = false;
  double degrade_rate = 0;
  std::uint64_t checkpoint_every = 0;
  bool journal = false;
};

SimSpec sim_spec(const std::string& name) {
  SimSpec s;
  s.name = name;
  if (name == "sim-slo-ckpt") {
    s.shape.ports = 32;
    s.shape.mean_interarrival = 0.5;
    s.shape.deadline_fraction = 0.5;
    s.shape.deadline_ref_bps = sw::common::mbps(s.bandwidth_mbps);
    s.scheduler = "DEADLINE-FVDF";
    s.admission = true;
    s.degrade_rate = 0.05;
    s.checkpoint_every = 64;
    s.journal = true;
  }
  return s;
}

/// n stratified uniforms in [0, 1), shuffled: stratum i of n, at a seeded
/// point inside it (`jitter`) or at its midpoint.
std::vector<double> strata(std::size_t n, sw::common::Rng& rng,
                           bool jitter = true) {
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i)
    u[i] = (static_cast<double>(i) + (jitter ? rng.uniform() : 0.5)) /
           static_cast<double>(n);
  rng.shuffle(u);
  return u;
}

/// The k least-loaded ports (ties in the seeded order of `order`).
std::vector<sw::fabric::PortId> least_loaded(
    std::size_t k, const std::vector<double>& load,
    std::vector<sw::fabric::PortId>& order, sw::common::Rng& rng) {
  rng.shuffle(order);
  std::stable_sort(order.begin(), order.end(),
                   [&load](auto a, auto b) { return load[a] < load[b]; });
  return {order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k)};
}

sw::workload::Trace generate(const TraceShape& shape, std::uint64_t seed) {
  sw::common::Rng rng(seed);
  const std::size_t n = shape.coflows;
  const std::vector<double> u_gap = strata(n, rng), u_width = strata(n, rng),
                            u_comp = strata(n, rng), u_dl = strata(n, rng),
                            u_slack = strata(n, rng);
  std::vector<double> u_size;
  for (std::size_t b = 0; b < n; b += shape.block) {
    const auto part = strata(std::min(shape.block, n - b), rng, false);
    u_size.insert(u_size.end(), part.begin(), part.end());
  }
  std::vector<sw::fabric::PortId> order(shape.ports);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> egress(shape.ports), ingress(shape.ports);
  const double la = std::pow(shape.size_lo, shape.size_alpha);
  const double ha = std::pow(shape.size_hi, shape.size_alpha);

  sw::workload::Trace trace;
  trace.num_ports = shape.ports;
  double now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sw::workload::CoflowSpec c;
    c.id = i;
    c.job = i;
    c.arrival = now;
    now += -std::log(1.0 - u_gap[i]) * shape.mean_interarrival;
    const auto width = 1 + static_cast<std::size_t>(
                               u_width[i] * static_cast<double>(shape.width_hi));
    // Bounded Pareto inverse CDF; one base size per coflow (partitions of
    // one stage are similar-sized), mild lognormal skew per flow.
    const double base = std::pow(
        -(u_size[i] * ha - u_size[i] * la - ha) / (ha * la),
        -1.0 / shape.size_alpha);
    const bool compressible = u_comp[i] < shape.compressible_fraction;
    const auto senders = least_loaded(width, egress, order, rng);
    const auto receivers =
        least_loaded(rng.uniform_int(1, width), ingress, order, rng);
    std::vector<double> in(shape.ports), out(shape.ports);
    double bottleneck = 0;
    for (std::size_t j = 0; j < width; ++j) {
      sw::workload::FlowSpec f;
      f.src = senders[j];
      f.dst = receivers[j % receivers.size()];
      f.bytes = base * rng.lognormal(-0.03125, 0.25);
      f.compressible = compressible;
      egress[f.src] += f.bytes;
      ingress[f.dst] += f.bytes;
      in[f.src] += f.bytes;
      out[f.dst] += f.bytes;
      bottleneck = std::max({bottleneck, in[f.src], out[f.dst]});
      c.flows.push_back(f);
    }
    if (u_dl[i] < shape.deadline_fraction)
      c.deadline = bottleneck / shape.deadline_ref_bps *
                   (shape.slack_lo +
                    u_slack[i] * (shape.slack_hi - shape.slack_lo));
    trace.coflows.push_back(std::move(c));
  }
  return trace;
}

constexpr std::size_t kTraces = 8;

/// Seed of trace k of a run (splitmix64 of the run seed and k).
std::uint64_t trace_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Everything a replay needs, built during set-up.
struct SimSetup {
  sw::workload::Trace trace;
  std::unique_ptr<sw::fabric::Fabric> fabric;
  std::unique_ptr<sw::cpu::ConstantCpu> cpu;
  sw::codec::CodecModel codec;
  std::uint64_t seed = 0;  ///< trace seed; also seeds fabric degradation
  /// Per coflow id: CCT lower bound with the fabric to itself and every
  /// compressible byte already at the codec's ratio (the engine's own
  /// isolation_bound counts raw bytes, which compressed coflows beat).
  std::unordered_map<sw::fabric::CoflowId, double> wire_bound;
};

std::unordered_map<sw::fabric::CoflowId, double> wire_bounds(
    const sw::workload::Trace& trace, const sw::fabric::Fabric& fabric,
    double codec_ratio) {
  std::unordered_map<sw::fabric::CoflowId, double> bounds;
  std::vector<double> in(trace.num_ports), out(trace.num_ports);
  for (const auto& c : trace.coflows) {
    std::fill(in.begin(), in.end(), 0.0);
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto& f : c.flows) {
      const double ratio =
          f.compress_ratio > 0 ? f.compress_ratio : codec_ratio;
      const double wire = f.bytes * (f.compressible ? std::min(1.0, ratio)
                                                    : 1.0);
      in[f.src] += wire;
      out[f.dst] += wire;
    }
    double bound = 0;
    for (sw::fabric::PortId p = 0; p < trace.num_ports; ++p) {
      bound = std::max(bound, in[p] / fabric.nominal_ingress_capacity(p));
      bound = std::max(bound, out[p] / fabric.nominal_egress_capacity(p));
    }
    bounds[c.id] = bound;
  }
  return bounds;
}

SimSetup build_setup(const SimSpec& spec, std::uint64_t seed) {
  SimSetup s;
  s.seed = seed;
  s.trace = generate(spec.shape, seed);
  s.fabric = std::make_unique<sw::fabric::Fabric>(
      s.trace.num_ports, sw::common::mbps(spec.bandwidth_mbps));
  s.cpu = std::make_unique<sw::cpu::ConstantCpu>(spec.cpu_headroom);
  s.codec = sw::codec::codec_model_by_name("LZ4");
  s.wire_bound = wire_bounds(s.trace, *s.fabric, s.codec.ratio);
  return s;
}

sw::sim::SimConfig sim_config(const SimSpec& spec, const SimSetup& setup,
                              const std::string& recovery_dir) {
  sw::sim::SimConfig c;
  c.codec = &setup.codec;
  c.incremental_sched = true;
  c.admission.enabled = spec.admission;
  c.degradation.rate = spec.degrade_rate;
  c.degradation.seed = setup.seed;
  if (!recovery_dir.empty()) {
    c.recovery.dir = recovery_dir;
    c.recovery.checkpoint_every = spec.checkpoint_every;
    c.recovery.journal = spec.journal;
  }
  return c;
}

bool uses_recovery(const SimSpec& spec) {
  return spec.journal || spec.checkpoint_every > 0;
}

/// FNV-1a over every record field and the degradation/SLO counters: equal
/// digests mean equal Metrics.
std::uint64_t digest(const sw::sim::Metrics& m) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  auto num = [&mix](auto v) { mix(&v, sizeof v); };
  for (const auto& f : m.flows) {
    num(f.id), num(f.coflow), num(f.job), num(f.original_bytes);
    num(f.wire_bytes), num(f.arrival), num(f.completion);
  }
  for (const auto& c : m.coflows) {
    num(c.id), num(c.job), num(c.width), num(c.original_bytes);
    num(c.wire_bytes), num(c.arrival), num(c.completion);
    num(c.isolation_bound), num(c.deadline), num(c.rejected);
  }
  const auto& d = m.degradation;
  num(d.capacity_changes), num(d.link_failures), num(d.stalled_flow_slices);
  num(d.compression_flips);
  const auto& s = m.slo;
  num(s.with_deadline), num(s.admitted), num(s.degraded), num(s.deferred);
  num(s.rejected), num(s.shed_midflight), num(s.shed_bytes);
  num(s.repriced_shed), num(s.repriced_demoted);
  return h;
}

/// Physical checks on one replay's output. Returns the number of coflows
/// that violate one; details go to the report.
std::uint64_t check_metrics(const sw::sim::Metrics& m, const SimSetup& setup,
                            double slice, Report& report) {
  std::uint64_t bad = 0;
  for (const auto& c : m.coflows) {
    std::string why;
    const auto bound = setup.wire_bound.find(c.id);
    if (bound == setup.wire_bound.end()) {
      why = "not in the trace";
    } else if (!c.rejected && !c.completed()) {
      why = "never completed";
    } else if (c.completed() && !c.rejected &&
               c.cct() + slice + 1e-9 * bound->second < bound->second) {
      why = "CCT " + std::to_string(c.cct()) + " below isolation bound " +
            std::to_string(bound->second);
    } else if (c.wire_bytes > c.original_bytes * (1 + 1e-9) + 1e-6) {
      why = "wire bytes exceed original bytes";
    }
    if (!why.empty()) {
      ++bad;
      report.violation("coflow " + std::to_string(c.id) + ": " + why);
    }
  }
  if (m.total_wire_bytes() > m.total_original_bytes() * (1 + 1e-9)) {
    ++bad;
    report.violation("total wire bytes exceed original bytes");
  }
  return bad;
}

/// Fresh recovery dir per replay, removed afterwards.
class ScratchDir {
 public:
  ScratchDir(const fs::path& parent, const std::string& tag, bool enabled) {
    if (!enabled) return;
    static int counter = 0;
    path_ = parent / (tag + "-" + std::to_string(::getpid()) + "-" +
                      std::to_string(counter++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct RecoveryFiles {
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_records = 0;
  bool journal_torn = false;
};

RecoveryFiles scan_recovery_dir(const fs::path& dir) {
  RecoveryFiles r;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.starts_with("snap-") && name.ends_with(".swsnap")) {
      ++r.snapshots;
      r.snapshot_bytes += e.file_size();
    } else if (name == "journal.swj") {
      r.journal_bytes = e.file_size();
      const auto scan = swallow::recovery::read_journal(e.path().string());
      r.journal_records = scan.records.size();
      r.journal_torn = scan.torn;
    }
  }
  return r;
}

struct Replay {
  std::optional<sw::sim::Metrics> metrics;  // empty when the replay threw
  double wall_s = 0;
  std::uint64_t digest = 0;
  RecoveryFiles files;
};

/// One replay with a fresh scheduler. `decorate`, when set, wraps the
/// scheduler and CPU provider for the call.
template <typename Decorate>
Replay replay(const SimSpec& spec, const SimSetup& setup, const Options& opt,
              bool with_recovery, Report& report, Decorate&& decorate) {
  Replay r;
  const auto sched = sw::sim::make_scheduler(spec.scheduler);
  ScratchDir dir(opt.work_dir, "recovery", with_recovery);
  const sw::sim::SimConfig config = sim_config(spec, setup, dir.str());
  try {
    const auto t0 = Clock::now();
    sw::sim::Metrics m = decorate(*sched, *setup.cpu, config);
    r.wall_s = seconds_since(t0);
    r.digest = digest(m);
    r.metrics = std::move(m);
  } catch (const std::exception& e) {
    report.violation(std::string("replay threw: ") + e.what());
  }
  if (with_recovery && r.metrics) {
    r.files = scan_recovery_dir(dir.path());
    if (r.files.journal_torn) report.violation("journal ends torn");
  }
  return r;
}

Replay bare_replay(const SimSpec& spec, const SimSetup& setup,
                   const Options& opt, bool with_recovery, Report& report) {
  return replay(spec, setup, opt, with_recovery, report,
                [&](sw::sched::Scheduler& s, const sw::cpu::CpuProvider& cpu,
                    const sw::sim::SimConfig& c) {
                  return sw::sim::run_simulation(setup.trace, *setup.fabric,
                                                 cpu, s, c);
                });
}

struct Decorated {
  Replay replay;
  std::uint64_t rounds = 0;
  double busy_s = 0;
  std::vector<double> round_us;
  std::uint64_t headroom_calls = 0;
  bool forwarding_ok = true;
};

/// Direct forwarding probe: every CpuProvider virtual answers as the
/// inner provider does, and the Scheduler state hooks round-trip through
/// the decorator byte for byte.
bool forwarding_matches(sw::sched::Scheduler& inner, TimedScheduler& outer,
                        const sw::cpu::CpuProvider& cpu,
                        const CountingCpu& counting, std::size_t ports) {
  for (sw::cpu::NodeId n = 0; n < ports; ++n) {
    for (const double t : {0.0, 1.5, 1e3}) {
      if (counting.headroom(n, t) != cpu.headroom(n, t) ||
          counting.can_compress(n, t) != cpu.can_compress(n, t) ||
          counting.headroom_constant_until(n, t) !=
              cpu.headroom_constant_until(n, t))
        return false;
    }
  }
  sw::recovery::StateWriter direct, forwarded;
  inner.save_state(direct);
  outer.save_state(forwarded);
  if (direct.buffer() != forwarded.buffer()) return false;
  sw::recovery::StateReader reader(direct.buffer());
  outer.restore_state(reader);
  sw::recovery::StateWriter after;
  inner.save_state(after);
  return after.buffer() == direct.buffer();
}

Decorated decorated_replay(const SimSpec& spec, const SimSetup& setup,
                           const Options& opt, bool timed,
                           std::uint64_t replay_id, Report& report) {
  Decorated d;
  d.replay = replay(
      spec, setup, opt, uses_recovery(spec), report,
      [&](sw::sched::Scheduler& s, const sw::cpu::CpuProvider& cpu,
          const sw::sim::SimConfig& c) {
        TimedScheduler sched(s, timed, replay_id);
        CountingCpu counting(cpu);
        const auto t0 = Clock::now();
        sw::sim::Metrics m = sw::sim::run_simulation(
            setup.trace, *setup.fabric, counting, sched, c);
        if (SpanLog* log = spans())
          log->record("sim.run_simulation", replay_id, 0, t0, Clock::now());
        d.rounds = sched.rounds();
        d.busy_s = sched.busy_s();
        d.round_us = sched.round_us();
        d.headroom_calls = counting.headroom_calls();
        d.forwarding_ok = forwarding_matches(s, sched, cpu, counting,
                                             setup.trace.num_ports);
        return m;
      });
  return d;
}

struct CctStats {
  std::vector<double> ccts;
  double goodput_bytes = 0;
};

CctStats cct_stats(const sw::sim::Metrics& m) {
  CctStats s;
  for (const auto& c : m.coflows) {
    if (c.rejected || !c.completed()) continue;
    s.ccts.push_back(c.cct());
    s.goodput_bytes += c.original_bytes;
  }
  return s;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim-fvdf-dense" || name == "sim-slo-ckpt";
}

Report run_sim_workload(const Options& opt) {
  Report report;
  const SimSpec spec = sim_spec(opt.workload);
  // Untraced runs replay kTraces independently seeded traces and pool their
  // outputs, so one trace's arrangement does not set the run's numbers; the
  // traced run replays trace 0 only.
  const std::size_t n_traces = opt.trace ? 1 : kTraces;

  // Set-up: trace generation + fabric/CPU/codec construction, five times;
  // the median is setup_s and the last one is used.
  std::vector<double> setup_s;
  std::vector<SimSetup> setups;
  for (int rep = 0; rep < 5; ++rep) {
    setups.clear();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < n_traces; ++k)
      setups.push_back(build_setup(spec, trace_seed(opt.seed, k)));
    setup_s.push_back(seconds_since(t0));
  }
  const double slice = sim_config(spec, setups[0], "").slice;
  const std::size_t n_coflows = spec.shape.coflows;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);

  std::vector<std::optional<sw::sim::Metrics>> reference(n_traces);
  std::vector<std::uint64_t> reference_digest(n_traces);
  // Counts a replay of trace k, checks its invariants the first time and
  // its digest against the first replay afterwards.
  auto account = [&](std::size_t k, const Replay& r, const char* what) {
    report.attempted += n_coflows;
    if (!r.metrics) {
      report.failed += n_coflows;
      return;
    }
    if (!reference[k]) {
      reference[k] = r.metrics;
      reference_digest[k] = r.digest;
      report.failed += check_metrics(*r.metrics, setups[k], slice, report);
    } else if (r.digest != reference_digest[k]) {
      report.failed += n_coflows;
      report.violation(std::string(what) +
                       " replay Metrics differ from the first replay");
    }
  };

  if (!opt.trace) {
    // Per trace, the wall time of each of its replays.
    std::vector<std::vector<double>> trace_wall(n_traces);
    std::size_t i = 0;
    do {
      const std::size_t k = i++ % n_traces;
      const Replay r = bare_replay(spec, setups[k], opt, uses_recovery(spec),
                                   report);
      account(k, r, "bare");
      if (r.metrics) trace_wall[k].push_back(r.wall_s);
    } while ((Clock::now() < deadline || i < n_traces) && i < 10000 &&
             report.correct);

    // Pooled over the traces: every coflow of every trace is one sample.
    std::vector<double> ccts;
    double goodput_bytes = 0, makespan = 0, original = 0, wire = 0;
    std::size_t with_deadline = 0, met = 0;
    for (const auto& m : reference) {
      if (!m) continue;
      const CctStats cs = cct_stats(*m);
      ccts.insert(ccts.end(), cs.ccts.begin(), cs.ccts.end());
      goodput_bytes += cs.goodput_bytes;
      makespan += m->makespan();
      original += m->total_original_bytes();
      wire += m->total_wire_bytes();
      with_deadline += m->deadline_coflows();
      met += m->deadlines_met();
    }
    double cct_sum = 0;
    for (const double c : ccts) cct_sum += c;
    // Mean over the traces of each trace's median replay: every trace
    // weighs the same however many times it was replayed.
    double wall_sum = 0;
    std::size_t replays = 0;
    for (const auto& w : trace_wall) {
      wall_sum += median(w);
      replays += w.size();
    }
    report.add("wall_s", wall_sum / static_cast<double>(n_traces), "s");
    report.add("cct_avg_s", ccts.empty() ? 0 : cct_sum / ccts.size(), "s");
    report.add("cct_p50_s", quantile(ccts, 0.5), "s");
    report.add("cct_tail_s", quantile(ccts, 0.99), "s");
    report.add("goodput_MBps",
               makespan > 0 ? goodput_bytes / makespan / 1e6 : 0, "MB/s");
    report.add("traffic_reduction", original > 0 ? 1 - wire / original : 0,
               "fraction");
    // Metrics::deadline_met_fraction's convention: 1 without deadlines.
    report.add("deadline_met_frac",
               with_deadline > 0
                   ? static_cast<double>(met) / static_cast<double>(with_deadline)
                   : 1.0,
               "fraction");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::cerr << "swbench: " << replays << " replays of "
              << n_traces << " traces of " << n_coflows << " coflows, "
              << ccts.size() << " CCT samples (tail = p99)\n";
    return report;
  }

  // ---- Traced run ----
  // Fidelity first: a counting-only decorated replay fixes the reference
  // round and headroom-call counts the timed replays must reproduce.
  const Decorated counted = decorated_replay(spec, setups[0], opt, false, 0,
                                             report);
  account(0, counted.replay, "counting");
  if (!counted.forwarding_ok)
    report.violation("decorators do not forward every virtual");

  std::vector<double> bare_wall, traced_wall, busy, norec_wall, round_us;
  RecoveryFiles files;
  std::uint64_t replay_id = 1;
  do {
    const Replay bare = bare_replay(spec, setups[0], opt, uses_recovery(spec),
                                    report);
    account(0, bare, "bare");
    if (bare.metrics) {
      bare_wall.push_back(bare.wall_s);
      files = bare.files;
    }
    const Decorated traced =
        decorated_replay(spec, setups[0], opt, true, replay_id++, report);
    account(0, traced.replay, "traced");
    if (!traced.forwarding_ok)
      report.violation("decorators do not forward every virtual");
    if (traced.rounds != counted.rounds ||
        traced.headroom_calls != counted.headroom_calls) {
      report.failed += n_coflows;
      report.violation("traced replay ran " + std::to_string(traced.rounds) +
                       " rounds / " + std::to_string(traced.headroom_calls) +
                       " headroom calls, untraced " +
                       std::to_string(counted.rounds) + " / " +
                       std::to_string(counted.headroom_calls));
    }
    if (traced.replay.metrics) {
      traced_wall.push_back(traced.replay.wall_s);
      busy.push_back(traced.busy_s);
      round_us.insert(round_us.end(), traced.round_us.begin(),
                      traced.round_us.end());
    }
    if (uses_recovery(spec)) {
      const Replay norec = bare_replay(spec, setups[0], opt, false, report);
      account(0, norec, "no-recovery");
      if (norec.metrics) norec_wall.push_back(norec.wall_s);
    }
  } while (Clock::now() < deadline && traced_wall.size() < 1000 &&
           report.correct);

  const double wall = median(traced_wall);
  const double sched_busy = median(busy);
  const double rec_overhead =
      uses_recovery(spec)
          ? std::max(0.0, median(bare_wall) - median(norec_wall))
          : 0.0;
  const double engine_self = std::max(0.0, wall - sched_busy - rec_overhead);
  const double rounds = static_cast<double>(counted.rounds);
  auto share = [wall](double s) { return wall > 0 ? s / wall : 0.0; };

  report.add("sched.rounds", rounds, "count");
  report.add("sched.busy_s", sched_busy, "s");
  report.add("sched.share", share(sched_busy), "fraction");
  report.add("sched.round_us_p50", quantile(round_us, 0.5), "us");
  report.add("sched.round_us_p99", quantile(round_us, 0.99), "us");
  report.add("engine.self_s", engine_self, "s");
  report.add("engine.share", share(engine_self), "fraction");
  report.add("engine.us_per_round",
             rounds > 0 ? engine_self / rounds * 1e6 : 0, "us");
  report.add("engine.cpu_headroom_calls",
             static_cast<double>(counted.headroom_calls), "count");
  report.add("recovery.snapshots", static_cast<double>(files.snapshots),
             "count");
  report.add("recovery.snapshot_bytes",
             static_cast<double>(files.snapshot_bytes), "bytes");
  report.add("recovery.journal_bytes",
             static_cast<double>(files.journal_bytes), "bytes");
  report.add("recovery.journal_records",
             static_cast<double>(files.journal_records), "count");
  report.add("recovery.overhead_s", rec_overhead, "s");
  report.add("recovery.share",
             median(bare_wall) > 0 ? rec_overhead / median(bare_wall) : 0,
             "fraction");
  if (reference[0]) {
    const sw::sim::Metrics& ref = *reference[0];
    const auto& slo = ref.slo;
    report.add("slo.admitted", static_cast<double>(slo.admitted), "count");
    report.add("slo.deferred", static_cast<double>(slo.deferred), "count");
    report.add("slo.rejected", static_cast<double>(slo.rejected), "count");
    report.add("slo.shed", static_cast<double>(slo.shed_midflight), "count");
    report.add("fabric.capacity_changes",
               static_cast<double>(ref.degradation.capacity_changes),
               "count");
    report.add(
        "fabric.stalled_flow_slices",
        static_cast<double>(ref.degradation.stalled_flow_slices),
        "count");
    report.add("cct.samples",
               static_cast<double>(cct_stats(ref).ccts.size()),
               "count");
  }
  const double untraced = median(bare_wall);
  report.add("trace.overhead_frac", untraced > 0 ? wall / untraced - 1 : 0,
             "fraction");
  std::cerr << "swbench: " << traced_wall.size()
            << " traced/untraced replay pairs, " << counted.rounds
            << " rounds per replay\n";
  return report;
}

}  // namespace swbench
