// Incremental scheduling (DESIGN.md section 11): byte-identity against the
// full recompute, plus unit coverage of the dirty-set tracker and the rank
// index.
//
// The engine runs the same event-driven sequence twice — once with the
// DirtyTracker feed (memoized Γ, rank-index admission) and once with
// incremental_sched off (historical full recompute per round) — and every
// Metrics record must match with exact FP equality. The randomized sweep
// crosses schedulers with degradation, quantized completions and
// non-constant CPU providers, which together exercise every dirty rule:
// arrivals, flow completions, compression-finished, capacity multipliers,
// CPU headroom changes and priority upgrades. A counting CPU provider pins
// one per-port CPU sample per decision point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "obs/trace.hpp"
#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace swallow;

workload::Trace make_trace(std::uint64_t seed, std::size_t coflows,
                           std::size_t ports) {
  workload::GeneratorConfig gen;
  gen.num_ports = ports;
  gen.num_coflows = coflows;
  gen.mean_interarrival = 0.3;
  gen.size_lo = 1e5;
  gen.size_hi = 2e8;
  gen.size_alpha = 0.2;
  gen.width_lo = 1;
  gen.width_hi = 5;
  gen.seed = seed;
  return workload::generate_trace(gen);
}

sim::Metrics run_once(const workload::Trace& trace,
                      const fabric::Fabric& fabric,
                      const cpu::CpuProvider& cpu, const std::string& name,
                      sim::SimConfig config, bool incremental) {
  config.engine_mode = sim::EngineMode::kEventDriven;
  config.incremental_sched = incremental;
  auto sched = sim::make_scheduler(name);  // fresh: schedulers are stateful
  return sim::run_simulation(trace, fabric, cpu, *sched, config);
}

// Exact (bitwise-value) comparison of every record the engine emits.
void expect_identical(const sim::Metrics& a, const sim::Metrics& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].id, b.flows[i].id);
    EXPECT_EQ(a.flows[i].completion, b.flows[i].completion) << "flow " << i;
    EXPECT_EQ(a.flows[i].wire_bytes, b.flows[i].wire_bytes) << "flow " << i;
  }
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].id, b.coflows[i].id);
    EXPECT_EQ(a.coflows[i].completion, b.coflows[i].completion)
        << "coflow " << i;
    EXPECT_EQ(a.coflows[i].wire_bytes, b.coflows[i].wire_bytes)
        << "coflow " << i;
  }
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_EQ(a.utilization[i].t, b.utilization[i].t);
    EXPECT_EQ(a.utilization[i].egress_utilization,
              b.utilization[i].egress_utilization)
        << "sample " << i;
  }
  EXPECT_EQ(a.degradation.capacity_changes, b.degradation.capacity_changes);
  EXPECT_EQ(a.degradation.link_failures, b.degradation.link_failures);
  EXPECT_EQ(a.degradation.stalled_flow_slices,
            b.degradation.stalled_flow_slices);
  EXPECT_EQ(a.degradation.compression_flips, b.degradation.compression_flips);
}

void expect_incremental_identity(const workload::Trace& trace,
                                 const fabric::Fabric& fabric,
                                 const cpu::CpuProvider& cpu,
                                 const std::string& name,
                                 const sim::SimConfig& config,
                                 const std::string& label) {
  const sim::Metrics inc = run_once(trace, fabric, cpu, name, config, true);
  const sim::Metrics full = run_once(trace, fabric, cpu, name, config, false);
  expect_identical(inc, full, label);
}

TEST(IncrementalIdentity, RandomizedSweep) {
  // Schedulers x degradation x quantized completions, two seeds each. FVDF
  // covers priority upgrades and the compression dirty rules; SEBF and AALO
  // cover the non-FVDF index paths.
  const std::vector<std::string> names = {"FVDF", "FVDF-NC", "FVDF-BLIND",
                                          "SEBF", "AALO"};
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const workload::Trace trace = make_trace(seed, 24, 12);
    const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
    const cpu::ConstantCpu cpu(0.85);
    for (const bool degrade : {false, true}) {
      for (const bool quantize : {false, true}) {
        sim::SimConfig config;
        config.codec = &codec::default_codec_model();
        config.quantize_completions = quantize;
        config.utilization_sample_period = 0.25;
        config.max_time = 72000.0;
        if (degrade) {
          config.degradation.rate = 0.15;
          config.degradation.seed = seed + 1;
          config.degradation.failure_fraction = 0.3;
        }
        for (const std::string& name : names) {
          const std::string label =
              name + " seed=" + std::to_string(seed) +
              " degrade=" + (degrade ? "1" : "0") +
              " quantize=" + (quantize ? "1" : "0");
          expect_incremental_identity(trace, fabric, cpu, name, config,
                                      label);
        }
      }
    }
  }
}

TEST(IncrementalIdentity, WindowedCpuHeavyFailures) {
  // Non-constant CPU under heavy link failures: exercises the per-port CPU
  // sampling rule (value-compared headroom + compress gate) together with
  // capacity dirtying and long starvation stretches (priority upgrades).
  const workload::Trace trace = make_trace(17, 20, 10);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::WindowedCpu cpu({{0.0, 1.0}, {2.0, 3.5}, {5.0, 9.0}}, 0.9, 0.0);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.utilization_sample_period = 0.5;
  config.max_time = 72000.0;
  config.degradation.rate = 0.2;
  config.degradation.seed = 29;
  config.degradation.failure_fraction = 0.4;
  expect_incremental_identity(trace, fabric, cpu, "FVDF", config,
                              "windowed cpu, heavy failures");
  expect_incremental_identity(trace, fabric, cpu, "SEBF", config,
                              "windowed cpu, heavy failures, sebf");
}

TEST(IncrementalIdentity, BurstyCpu) {
  const workload::Trace trace = make_trace(23, 16, 8);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  cpu::BurstyCpu::Config bc;
  bc.nodes = 8;
  bc.idle_fraction = 0.5;
  bc.mean_burst = 0.5;
  bc.seed = 31;
  const cpu::BurstyCpu cpu(bc);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  expect_incremental_identity(trace, fabric, cpu, "FVDF", config,
                              "bursty cpu");
  expect_incremental_identity(trace, fabric, cpu, "FVDF-BLIND", config,
                              "bursty cpu, blind");
}

// ---- One CPU sample per decision point ----

// Forwards every CpuProvider virtual, counting headroom reads per instant.
class CountingCpu final : public cpu::CpuProvider {
 public:
  explicit CountingCpu(const cpu::CpuProvider& inner) : inner_(&inner) {}
  double headroom(cpu::NodeId node, common::Seconds t) const override {
    ++reads[t];
    return inner_->headroom(node, t);
  }
  bool can_compress(cpu::NodeId node, common::Seconds t) const override {
    return inner_->can_compress(node, t);
  }
  common::Seconds headroom_constant_until(cpu::NodeId node,
                                          common::Seconds t) const override {
    return inner_->headroom_constant_until(node, t);
  }
  mutable std::map<common::Seconds, std::uint64_t> reads;

 private:
  const cpu::CpuProvider* inner_;
};

// Forwards to a registry scheduler, recording each decision instant.
class RecordingScheduler final : public sched::Scheduler {
 public:
  explicit RecordingScheduler(const std::string& name)
      : inner_(sim::make_scheduler(name)) {}
  std::string name() const override { return inner_->name(); }
  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    decisions.push_back(ctx.now);
    return inner_->schedule(ctx);
  }
  std::vector<common::Seconds> decisions;

 private:
  std::unique_ptr<sched::Scheduler> inner_;
};

TEST(IncrementalCpuReads, OneSamplePerDecisionPoint) {
  // The dirty tracker, the Eq. 3 gate, Eq. 7 and the segment cut all read
  // one per-port sample per decision point, so no instant sees more than
  // num_ports headroom reads. The only reads between decision points are
  // the segment re-cuts at CPU folds, once per port as well. (Evaluating
  // flows against the provider would read it once per evaluated flow.)
  const workload::Trace trace = make_trace(41, 30, 8);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::ConstantCpu constant(0.9);
  cpu::BurstyCpu::Config bc;
  bc.nodes = 8;
  bc.mean_burst = 0.05;
  bc.busy_headroom = 0.3;
  bc.seed = 7;
  const cpu::BurstyCpu bursty(bc);
  for (const cpu::CpuProvider* provider :
       {static_cast<const cpu::CpuProvider*>(&constant),
        static_cast<const cpu::CpuProvider*>(&bursty)}) {
    for (const std::string name : {"FVDF", "FVDF-BLIND", "DEADLINE-FVDF"}) {
      SCOPED_TRACE(name + (provider == &constant ? " constant" : " bursty"));
      CountingCpu cpu(*provider);
      RecordingScheduler sched(name);
      sim::SimConfig config;
      config.codec = &codec::default_codec_model();
      sim::run_simulation(trace, fabric, cpu, sched, config);
      ASSERT_GT(sched.decisions.size(), trace.coflows.size());
      std::uint64_t total = 0;
      for (const auto& [t, n] : cpu.reads) {
        EXPECT_LE(n, fabric.num_ports()) << "t=" << t;
        total += n;
      }
      const std::uint64_t per_round = fabric.num_ports();
      if (provider == &constant)
        EXPECT_EQ(total, per_round * sched.decisions.size());
      else
        EXPECT_GT(cpu.reads.size(), sched.decisions.size());  // CPU folds
    }
  }
}

// ---- DirtyTracker unit tests ----

struct TrackerWorld {
  std::vector<fabric::Flow> flows;
  std::vector<fabric::Coflow> coflows;

  // One coflow, `width` flows on ports (src, dst), (src+0/1, dst) ...
  fabric::CoflowId add_coflow(std::vector<std::pair<fabric::PortId,
                                                    fabric::PortId>> lanes) {
    fabric::Coflow c;
    c.id = coflows.size();
    for (const auto& [src, dst] : lanes) {
      fabric::Flow f;
      f.id = flows.size();
      f.coflow = c.id;
      f.src = src;
      f.dst = dst;
      f.original_bytes = 1e6;
      f.raw_remaining = 1e6;
      c.flows.push_back(f.id);
      flows.push_back(f);
    }
    coflows.push_back(c);
    return c.id;
  }
};

TEST(DirtyTracker, CapacityChangeDirtiesExactlyResidents) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  const auto c1 = w.add_coflow({{2, 3}});
  const auto c2 = w.add_coflow({{0, 3}, {2, 1}});
  sched::DirtyTracker tracker(4);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker.coflow_arrived(&c);
  tracker.consume();  // drop the arrival marks

  // Port 0 ingress: c0 and c2 source there, c1 does not.
  tracker.port_capacity_changed(0);
  EXPECT_EQ(tracker.dirty(), (std::vector<fabric::CoflowId>{c0, c2}));
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kRecompute);
  EXPECT_EQ(tracker.level(c1), sched::DirtyLevel::kClean);
  tracker.consume();

  // Port 3 egress: c1 and c2 sink there.
  tracker.port_capacity_changed(3);
  EXPECT_EQ(tracker.dirty(), (std::vector<fabric::CoflowId>{c1, c2}));
  tracker.consume();

  // A port no coflow touches dirties nothing... and there is no port 1
  // sourcing, only sinking: src and dst residency are tracked separately.
  EXPECT_TRUE(tracker.src_residents(1).empty());
  EXPECT_EQ(tracker.src_residents(0),
            (std::vector<fabric::CoflowId>{c0, c2}));
  EXPECT_EQ(tracker.dst_residents(1),
            (std::vector<fabric::CoflowId>{c0, c2}));
}

TEST(DirtyTracker, CompletedResidentsArePrunedLazily) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  const auto c1 = w.add_coflow({{0, 2}});
  sched::DirtyTracker tracker(3);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker.coflow_arrived(&c);
  tracker.consume();

  w.coflows[c0].completion = 5.0;  // completed: must stop getting dirtied
  tracker.port_capacity_changed(0);
  EXPECT_EQ(tracker.dirty(), (std::vector<fabric::CoflowId>{c1}));
  // ... and the resident list was compacted in the same pass.
  EXPECT_EQ(tracker.src_residents(0), (std::vector<fabric::CoflowId>{c1}));
}

TEST(DirtyTracker, LevelsMergeUpwardAndConsumeClears) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  sched::DirtyTracker tracker(2);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  tracker.coflow_arrived(&w.coflows[c0]);
  tracker.consume();

  tracker.priority_changed(c0);
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kKeyOnly);
  tracker.coflow_changed(c0);
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kRecompute);
  // A later key-only mark must not downgrade the recompute.
  tracker.priority_changed(c0);
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kRecompute);
  // Deduplicated: three marks, one dirty entry.
  EXPECT_EQ(tracker.dirty().size(), 1u);

  tracker.consume();
  EXPECT_TRUE(tracker.dirty().empty());
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kClean);
}

cpu::CpuSample sample_of(const cpu::CpuProvider& cpu, std::size_t ports,
                         common::Seconds t) {
  cpu::CpuSample s;
  s.take(cpu, ports, t);
  return s;
}

TEST(DirtyTracker, CpuSamplingDirtiesOnValueChangesOnly) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  w.add_coflow({{1, 0}});
  sched::DirtyTracker tracker(2);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker.coflow_arrived(&c);
  tracker.consume();

  // Constant provider: the first sample records, later samples never dirty.
  const cpu::ConstantCpu constant(0.9);
  tracker.sample_cpu(sample_of(constant, 2, 0.0));
  EXPECT_TRUE(tracker.dirty().empty());
  tracker.sample_cpu(sample_of(constant, 2, 10.0));
  EXPECT_TRUE(tracker.dirty().empty());

  // Windowed provider on port 0 only: idle until t=1, busy after. The
  // busy transition changes headroom at port 0 (and port 1 — same windows),
  // dirtying the coflows *sourced* at those ports.
  sched::DirtyTracker tracker2(2);
  tracker2.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker2.coflow_arrived(&c);
  tracker2.consume();
  const cpu::WindowedCpu windowed({{0.0, 1.0}}, 0.9, 0.0);
  tracker2.sample_cpu(sample_of(windowed, 2, 0.5));  // first sample: record only
  EXPECT_TRUE(tracker2.dirty().empty());
  tracker2.sample_cpu(sample_of(windowed, 2, 0.6));  // unchanged values: no dirt
  EXPECT_TRUE(tracker2.dirty().empty());
  tracker2.sample_cpu(sample_of(windowed, 2, 2.0));  // idle -> busy: both src ports moved
  EXPECT_EQ(tracker2.dirty().size(), 2u);
  EXPECT_EQ(tracker2.level(c0), sched::DirtyLevel::kRecompute);
}

// ---- Traced rounds take the incremental path ----

TEST(IncrementalTraced, TracedRoundConsumesTheDirtySet) {
  // A trace sink changes nothing about which path runs: every incremental
  // scheduler consumes the dirty set, and FVDF logs estimates only for the
  // coflows a round re-evaluates.
  TrackerWorld w;
  w.add_coflow({{0, 1}, {1, 2}});
  w.add_coflow({{2, 0}});
  w.add_coflow({{1, 0}, {2, 1}, {0, 2}});
  w.flows[1].raw_remaining = 4e6;
  w.flows[3].raw_remaining = 2e6;
  const fabric::Fabric fabric(3, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  const auto estimates = [](const obs::Tracer& t) {
    std::size_t n = 0;
    for (const obs::TraceEvent& ev : t.events())
      if (ev.name == "coflow_estimate") ++n;
    return n;
  };
  for (const std::string name : {"FVDF", "DEADLINE-FVDF", "SEBF", "AALO"}) {
    SCOPED_TRACE(name);
    sched::DirtyTracker tracker(fabric.num_ports());
    tracker.bind_flows(w.flows.data(), w.flows.size());
    for (const fabric::Coflow& c : w.coflows) tracker.coflow_arrived(&c);
    obs::Tracer tracer;
    sched::SchedContext ctx;
    ctx.fabric = &fabric;
    ctx.cpu = &cpu;
    ctx.codec = &codec::default_codec_model();
    ctx.sink = &tracer;
    ctx.tracker = &tracker;
    for (const fabric::Flow& f : w.flows) ctx.flows.push_back(&f);
    for (fabric::Coflow& c : w.coflows) ctx.coflows.push_back(&c);

    auto sched = sim::make_scheduler(name);
    sched->schedule(ctx);
    EXPECT_TRUE(tracker.dirty().empty());
    if (name != "FVDF") continue;
    EXPECT_EQ(estimates(tracer), w.coflows.size());

    // Nothing changed since: the next round re-evaluates no coflow.
    ctx.now += ctx.slice;
    ctx.coflow_event = false;
    sched->schedule(ctx);
    EXPECT_TRUE(tracker.dirty().empty());
    EXPECT_EQ(estimates(tracer), w.coflows.size());
  }
}

// ---- RankIndex unit tests ----

TEST(RankIndex, OrderedIterationAndUpdate) {
  sched::RankIndex index;
  index.insert_or_update(7, {3.0, 0.0, 7});
  index.insert_or_update(2, {1.0, 0.0, 2});
  index.insert_or_update(5, {2.0, 0.0, 5});
  auto order = [&] {
    std::vector<fabric::CoflowId> ids;
    index.for_each([&](fabric::CoflowId id) { ids.push_back(id); });
    return ids;
  };
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{2, 5, 7}));

  // Decrease-key moves the coflow; size is unchanged.
  index.insert_or_update(7, {0.5, 0.0, 7});
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 2, 5}));
  EXPECT_EQ(index.size(), 3u);

  // Re-insert with the identical key is a no-op.
  index.insert_or_update(5, {2.0, 0.0, 5});
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 2, 5}));

  // Ties on the primary key fall back to arrival, then id.
  index.insert_or_update(9, {2.0, 0.0, 9});
  index.insert_or_update(1, {2.0, -1.0, 1});
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 2, 1, 5, 9}));

  index.erase(2);
  EXPECT_FALSE(index.contains(2));
  EXPECT_TRUE(index.contains(5));
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 1, 5, 9}));
  index.erase(2);  // double-erase is a no-op
  EXPECT_EQ(index.size(), 4u);

  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.contains(7));
}

TEST(RankIndex, InfinityKeysRankLastAndTieById) {
  // A failed link makes Γ infinite; +inf keys must sort after every finite
  // key and tie-break among themselves by (arrival, id) — matching the
  // full-path stable_sort exactly.
  const double inf = std::numeric_limits<double>::infinity();
  sched::RankIndex index;
  index.insert_or_update(4, {inf, 1.0, 4});
  index.insert_or_update(3, {2.0, 0.0, 3});
  index.insert_or_update(6, {inf, 1.0, 6});
  std::vector<fabric::CoflowId> ids;
  index.for_each([&](fabric::CoflowId id) { ids.push_back(id); });
  EXPECT_EQ(ids, (std::vector<fabric::CoflowId>{3, 4, 6}));
}

TEST(RankIndex, RandomizedDifferentialAgainstOrderedMap) {
  // The flat index records changes and commits them in a batch at the next
  // walk; a std::map keyed the same way is the reference order. Operations
  // interleave freely between walks, so a batch mixes fresh inserts,
  // no-op re-inserts, key moves, erase-then-reinsert and
  // insert-then-erase of the same ids.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> primaries = {0.0, 0.5, 1.0, 1.0, 2.5, inf};
  const std::vector<double> arrivals = {0.0, 0.0, 1.0, 3.0};
  std::mt19937_64 rng(20261017);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto random_key = [&](fabric::CoflowId id) {
    return sched::CoflowRankKey{primaries[pick(primaries.size())],
                                arrivals[pick(arrivals.size())], id,
                                static_cast<std::uint8_t>(pick(4))};
  };

  sched::RankIndex index;
  std::map<sched::CoflowRankKey, fabric::CoflowId> ref;
  std::map<fabric::CoflowId, sched::CoflowRankKey> ref_key;
  auto ref_put = [&](fabric::CoflowId id, const sched::CoflowRankKey& k) {
    if (auto it = ref_key.find(id); it != ref_key.end()) ref.erase(it->second);
    ref_key[id] = k;
    ref.emplace(k, id);
  };
  auto ref_erase = [&](fabric::CoflowId id) {
    if (auto it = ref_key.find(id); it != ref_key.end()) {
      ref.erase(it->second);
      ref_key.erase(it);
    }
  };
  auto check_walks = [&](int step) {
    std::vector<fabric::CoflowId> want;
    for (const auto& [key, id] : ref) want.push_back(id);
    std::vector<fabric::CoflowId> got;
    index.for_each([&](fabric::CoflowId id) { got.push_back(id); });
    ASSERT_EQ(got, want) << "full walk, step " << step;
    ASSERT_EQ(index.size(), ref.size()) << "step " << step;
    // An early-stopping walk visits exactly the prefix it asked for.
    const std::size_t stop = want.empty() ? 0 : pick(want.size() + 1);
    got.clear();
    index.for_each_while([&](fabric::CoflowId id) {
      got.push_back(id);
      return got.size() < stop;
    });
    want.resize(std::min(want.size(), std::max<std::size_t>(stop, 1)));
    ASSERT_EQ(got, want) << "stopped walk, step " << step;
  };

  fabric::CoflowId id_bound = 8;  // grows: ids past the key table's end
  for (int step = 0; step < 6000; ++step) {
    const std::size_t op = pick(100);
    const fabric::CoflowId id = pick(id_bound);
    if (op < 30) {  // insert or move to a fresh random key
      const sched::CoflowRankKey k = random_key(id);
      index.insert_or_update(id, k);
      ref_put(id, k);
    } else if (op < 40) {  // same-key re-insert: no-op
      if (auto it = ref_key.find(id); it != ref_key.end())
        index.insert_or_update(id, it->second);
    } else if (op < 55) {  // erase (also of absent ids)
      index.erase(id);
      ref_erase(id);
    } else if (op < 65) {  // erase then reinsert before any walk
      index.erase(id);
      const sched::CoflowRankKey k = random_key(id);
      index.insert_or_update(id, k);
      ref_put(id, k);
    } else if (op < 72) {  // insert then erase before any walk
      index.insert_or_update(id, random_key(id));
      index.erase(id);
      ref_erase(id);
    } else if (op < 78) {  // move away and back: net no change
      if (auto it = ref_key.find(id); it != ref_key.end()) {
        const sched::CoflowRankKey k = it->second;
        index.insert_or_update(id, random_key(id));
        index.insert_or_update(id, k);
      }
    } else if (op < 80) {  // a new id past every id seen so far
      id_bound += 1 + pick(40);
      const sched::CoflowRankKey k = random_key(id_bound - 1);
      index.insert_or_update(id_bound - 1, k);
      ref_put(id_bound - 1, k);
    } else if (op < 81) {
      index.clear();
      ref.clear();
      ref_key.clear();
    } else {
      check_walks(step);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(index.contains(id), ref_key.count(id) != 0) << "step " << step;
  }
  check_walks(-1);
}

}  // namespace
