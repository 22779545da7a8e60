// Simulation-engine tests: byte conservation, exact completion timestamps,
// arrival activation, determinism, slice-staleness, allocation validation,
// deadlock detection and the segment event search.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/segment.hpp"

namespace swallow::sim {
namespace {

workload::Trace single_flow_trace(double bytes, double arrival = 0.0) {
  workload::Trace t;
  t.num_ports = 2;
  workload::CoflowSpec c;
  c.id = 1;
  c.job = 1;
  c.arrival = arrival;
  c.flows = {{0, 1, bytes, true, 0}};
  t.coflows = {c};
  return t;
}

TEST(Engine, SingleFlowFctIsExactlyBytesOverBandwidth) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 2.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  SimConfig config;
  config.slice = 0.01;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  ASSERT_EQ(m.flows.size(), 1u);
  EXPECT_NEAR(m.flows[0].fct(), 5.0, 1e-9);
  EXPECT_NEAR(m.avg_cct(), 5.0, 1e-9);
}

TEST(Engine, WireBytesEqualOriginalWithoutCompression) {
  workload::Trace t;
  t.num_ports = 4;
  for (int i = 0; i < 5; ++i) {
    workload::CoflowSpec c;
    c.id = static_cast<fabric::CoflowId>(i);
    c.job = i;
    c.arrival = i * 0.2;
    c.flows = {{static_cast<fabric::PortId>(i % 4),
                static_cast<fabric::PortId>((i + 1) % 4), 100.0 + i, true, 0}};
    t.coflows.push_back(c);
  }
  const fabric::Fabric fabric(4, 50.0);
  const cpu::ConstantCpu cpu(1.0);
  auto sched = make_scheduler("SEBF");
  const Metrics m = run_simulation(t, fabric, cpu, *sched, {});
  EXPECT_NEAR(m.total_wire_bytes(), m.total_original_bytes(), 1e-6);
  EXPECT_NEAR(m.traffic_reduction(), 0.0, 1e-9);
}

TEST(Engine, LateArrivalStartsNoEarlierThanArrival) {
  const auto trace = single_flow_trace(10.0, 3.0);
  const fabric::Fabric fabric(2, 2.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, {});
  EXPECT_GE(m.flows[0].completion, 8.0 - 1e-9);
  EXPECT_NEAR(m.flows[0].fct(), 5.0, 0.02);
}

TEST(Engine, DeterministicAcrossRuns) {
  workload::GeneratorConfig gen;
  gen.num_ports = 8;
  gen.num_coflows = 20;
  gen.size_lo = 1e5;
  gen.size_hi = 1e7;
  gen.width_hi = 4;
  gen.seed = 5;
  const auto trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(8, common::mbps(100));
  const cpu::ConstantCpu cpu(0.8);
  auto s1 = make_scheduler("FVDF");
  auto s2 = make_scheduler("FVDF");
  SimConfig config;
  config.codec = &codec::default_codec_model();
  const Metrics a = run_simulation(trace, fabric, cpu, *s1, config);
  const Metrics b = run_simulation(trace, fabric, cpu, *s2, config);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i)
    EXPECT_DOUBLE_EQ(a.flows[i].completion, b.flows[i].completion);
}

TEST(Engine, LongerSlicesNeverImproveCct) {
  workload::GeneratorConfig gen;
  gen.num_ports = 6;
  gen.num_coflows = 15;
  gen.size_lo = 1e6;
  gen.size_hi = 1e8;
  gen.width_hi = 3;
  gen.seed = 9;
  const auto trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(6, common::mbps(100));
  const cpu::ConstantCpu cpu(0.0);
  double prev = 0;
  for (const double slice : {0.01, 0.1, 1.0}) {
    auto sched = make_scheduler("SEBF");
    SimConfig config;
    config.slice = slice;
    const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
    EXPECT_GE(m.avg_cct(), prev * 0.999) << slice;
    prev = m.avg_cct();
  }
}

TEST(Engine, CompressionReducesWireBytes) {
  const auto trace = single_flow_trace(1000.0);
  const fabric::Fabric fabric(2, 1.0);  // 1 B/s: compression clearly wins
  const cpu::ConstantCpu cpu(1.0);
  auto sched = make_scheduler("FVDF");
  SimConfig config;
  const codec::CodecModel codec{"t", 100.0, 400.0, 0.5};
  config.codec = &codec;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  EXPECT_NEAR(m.total_wire_bytes(), 500.0, 1.0);
  EXPECT_NEAR(m.traffic_reduction(), 0.5, 0.01);
  // FCT ~ compression time (1000/100 = 10s) + wire (500/1 = 500s), far
  // below the uncompressed 1000s.
  EXPECT_LT(m.flows[0].fct(), 550.0);
}

TEST(Engine, IncompressibleFlowIsNeverCompressed) {
  auto trace = single_flow_trace(1000.0);
  trace.coflows[0].flows[0].compressible = false;
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(1.0);
  auto sched = make_scheduler("FVDF");
  SimConfig config;
  const codec::CodecModel codec{"t", 100.0, 400.0, 0.5};
  config.codec = &codec;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  EXPECT_NEAR(m.total_wire_bytes(), 1000.0, 1e-6);
}

TEST(Engine, CpuStallFallsBackToTransmission) {
  // CPU idle only for the first 0.5 s: compression starts, stalls, and the
  // engine must reschedule to plain transmission instead of deadlocking.
  const auto trace = single_flow_trace(100.0);
  const fabric::Fabric fabric(2, 10.0);
  const cpu::WindowedCpu cpu({{0.0, 0.5}});
  auto sched = make_scheduler("FVDF");
  SimConfig config;
  const codec::CodecModel codec{"t", 40.0, 160.0, 0.5};
  config.codec = &codec;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  ASSERT_EQ(m.flows.size(), 1u);
  EXPECT_GT(m.flows[0].completion, 0.0);
  // Partially compressed: wire bytes strictly between 50 and 100.
  EXPECT_GT(m.total_wire_bytes(), 50.0);
  EXPECT_LT(m.total_wire_bytes(), 100.0);
}

namespace {
/// A deliberately broken scheduler that oversubscribes every port.
class OverloadScheduler final : public sched::Scheduler {
 public:
  std::string name() const override { return "overload"; }
  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    fabric::Allocation a;
    for (const auto* f : ctx.flows)
      a.set_rate(f->id, ctx.fabric->ingress_capacity(f->src) * 2.0);
    return a;
  }
};

/// A scheduler that never allocates anything.
class LazyScheduler final : public sched::Scheduler {
 public:
  std::string name() const override { return "lazy"; }
  fabric::Allocation schedule(const sched::SchedContext&) override {
    return {};
  }
};
}  // namespace

TEST(Engine, RejectsInfeasibleAllocations) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  OverloadScheduler sched;
  EXPECT_THROW(run_simulation(trace, fabric, cpu, sched, {}), SimError);
}

TEST(Engine, DetectsDeadlock) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  LazyScheduler sched;
  SimConfig config;
  config.slice = 0.05;  // keep the stall window short
  EXPECT_THROW(run_simulation(trace, fabric, cpu, sched, config), SimError);
}

TEST(Engine, RejectsBadConfigs) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 1.0);
  const fabric::Fabric small(1, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  SimConfig config;
  config.slice = 0.0;
  EXPECT_THROW(run_simulation(trace, fabric, cpu, *sched, config),
               std::invalid_argument);
  EXPECT_THROW(run_simulation(trace, small, cpu, *sched, {}),
               std::invalid_argument);
}

TEST(Engine, RejectsFlowPortsOutsideTheFabric) {
  // A hand-built trace can name a port its num_ports does not cover. The
  // run must stop with a typed SimError before any scheduler indexes the
  // port tables, whichever endpoint is out of range.
  for (const bool bad_src : {true, false}) {
    auto trace = single_flow_trace(10.0);
    if (bad_src)
      trace.coflows[0].flows[0].src = 2;
    else
      trace.coflows[0].flows[0].dst = 7;
    const fabric::Fabric fabric(2, 1.0);
    const cpu::ConstantCpu cpu(0.0);
    for (const char* name : {"FIFO", "FVDF", "SEBF"}) {
      auto sched = make_scheduler(name);
      EXPECT_THROW(run_simulation(trace, fabric, cpu, *sched, {}), SimError)
          << name << (bad_src ? " src" : " dst");
    }
  }
}

TEST(Engine, EmptyTraceYieldsEmptyMetrics) {
  workload::Trace t;
  t.num_ports = 2;
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  const Metrics m = run_simulation(t, fabric, cpu, *sched, {});
  EXPECT_TRUE(m.flows.empty());
  EXPECT_TRUE(m.coflows.empty());
  EXPECT_DOUBLE_EQ(m.avg_fct(), 0.0);
}

// ---- Segment event search (sim/segment.hpp) ----

// One flow's event predicate as the engine builds it at a segment cut.
struct SegFlow {
  bool compress = false;
  double volume = 0;  // V0 (transmit) or d0 (compress)
  double step = 0;
};

std::uint64_t exhaustive_event(const SegFlow& f) {
  if (f.compress) {
    const segment::CompressEvent ev{f.volume, f.step};
    return segment::first_true_near(ev.guess(), ev);
  }
  const segment::TransmitEvent ev{f.volume, f.step};
  return segment::first_true_near(ev.guess(), ev);
}

TEST(SegmentEventSearch, BoundedMinimumMatchesExhaustiveSearch) {
  // Random segments mixing ordinary flows with the degenerate corners of
  // the lower-bound argument: steps just above kTiny, volumes at or below
  // epsilon, V0 / step at and beyond 2^53 (where j stops being exact in a
  // double) and past the kCap saturation, compress-mode predicates, and
  // exact or near duplicates (ties). The bounded search must report the
  // exhaustive per-flow minimum and exactly the flows tied at it, in offer
  // order.
  std::mt19937_64 rng(20240617);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, u(rng));
  };
  auto draw = [&]() {
    SegFlow f;
    f.compress = u(rng) < 0.3;
    switch (rng() % 6) {
      case 0:  // ordinary
        f.volume = log_uniform(1e3, 1e9);
        f.step = log_uniform(1e2, 1e7);
        break;
      case 1:  // step just above kTiny (rate barely served)
        f.volume = log_uniform(1e-3, 1e9);
        f.step = segment::kTiny * (1.0 + u(rng) * 1e-3);
        break;
      case 2:  // volume at or below epsilon
        f.volume = fabric::kVolumeEpsilon * u(rng);
        f.step = log_uniform(1e-9, 1e6);
        break;
      case 3:  // V0 / step around and above 2^53
        f.volume = log_uniform(1e6, 1e9);
        f.step = f.volume / std::ldexp(1.0, 53 + static_cast<int>(rng() % 12));
        break;
      case 4:  // one slice or just over
        f.step = log_uniform(1e2, 1e7);
        f.volume = f.step * (1.0 + (u(rng) - 0.5) * 1e-9);
        break;
      default:  // short flows near the minimum
        f.volume = log_uniform(1e2, 1e4);
        f.step = log_uniform(1e2, 1e3);
        break;
    }
    return f;
  };
  std::size_t pruned_trials = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<SegFlow> flows(1 + rng() % 40);
    for (SegFlow& f : flows) {
      if (&f != &flows.front() && u(rng) < 0.15)
        f = flows[rng() % static_cast<std::size_t>(&f - flows.data())];
      else
        f = draw();
    }
    std::uint64_t want_min = segment::kNoEvent;
    std::vector<fabric::FlowId> want_ties;
    std::vector<std::uint64_t> exact(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      exact[i] = exhaustive_event(flows[i]);
      if (exact[i] < want_min) {
        want_min = exact[i];
        want_ties.clear();
      }
      if (exact[i] == want_min) want_ties.push_back(i);
    }
    segment::EventMin got;
    got.reset();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows[i].compress)
        got.offer(i, segment::CompressEvent{flows[i].volume, flows[i].step});
      else
        got.offer(i, segment::TransmitEvent{flows[i].volume, flows[i].step});
    }
    ASSERT_EQ(got.min(), want_min) << "trial " << trial;
    ASSERT_EQ(got.ties(), want_ties) << "trial " << trial;
    pruned_trials += want_ties.size() < flows.size();
  }
  EXPECT_GT(pruned_trials, 1000u);  // the bound actually pruned flows
}

TEST(SegmentEventSearch, SaturatedEventsAllTie) {
  // Predicates that never hold below 2^62 report kCap; a saturated
  // minimum prunes nothing, so every such flow ties it.
  segment::EventMin m;
  m.reset();
  for (fabric::FlowId id = 0; id < 3; ++id)
    m.offer(id, segment::TransmitEvent{1e9, segment::kTiny * 1.5});
  EXPECT_EQ(m.min(), segment::kCap);
  EXPECT_EQ(m.ties(), (std::vector<fabric::FlowId>{0, 1, 2}));
  m.offer(3, segment::CompressEvent{fabric::kVolumeEpsilon / 2, 1.0});
  EXPECT_EQ(m.min(), 1u);
  EXPECT_EQ(m.ties(), (std::vector<fabric::FlowId>{3}));
}

}  // namespace
}  // namespace swallow::sim
