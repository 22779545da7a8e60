// Golden-file style validation of the Chrome trace_event export: run a real
// FVDF simulation with a Tracer attached, write the trace, and assert the
// output is well-formed JSON with monotonically ordered timestamps, matched
// B/E pairs per (pid, tid) track, and the scheduler-decision events the
// observability layer promises (Γ_C estimates, β decisions, arrivals,
// completions) for every coflow the scheduler re-evaluates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"

namespace swallow {
namespace {

workload::Trace tiny_trace() {
  workload::GeneratorConfig gen;
  gen.num_ports = 6;
  gen.num_coflows = 10;
  gen.mean_interarrival = 0.5;
  gen.size_lo = 1e6;
  gen.size_hi = 1e8;
  gen.size_alpha = 0.3;
  gen.width_lo = 1;
  gen.width_hi = 3;
  gen.seed = 7;
  return workload::generate_trace(gen);
}

// (ts, coflow) -> (gamma, key) of every coflow_estimate a traced replay at
// 100 Mbps logs.
using Estimates =
    std::map<std::pair<double, double>, std::pair<double, double>>;

Estimates logged_estimates(const workload::Trace& trace,
                           const std::string& scheduler, bool incremental) {
  obs::Tracer tracer;
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  auto sched = sim::make_scheduler(scheduler);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.sink = &tracer;
  config.incremental_sched = incremental;
  sim::run_simulation(trace, fabric, cpu, *sched, config);
  Estimates out;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name != "coflow_estimate") continue;
    const obs::JsonValue args = obs::parse_json(ev.args);
    out[{ev.ts, args.find("coflow")->number}] = {args.find("gamma")->number,
                                                 args.find("key")->number};
  }
  return out;
}

// Every estimate the incremental path logs equals the one the full
// recompute logs at the same instant for the same coflow.
void expect_estimates_match_full_recompute(const workload::Trace& trace,
                                           const std::string& scheduler) {
  SCOPED_TRACE(scheduler);
  const Estimates inc = logged_estimates(trace, scheduler, true);
  const Estimates full = logged_estimates(trace, scheduler, false);
  ASSERT_FALSE(inc.empty());
  for (const auto& [at, logged] : inc) {
    const auto it = full.find(at);
    ASSERT_NE(it, full.end()) << "ts " << at.first << " coflow " << at.second;
    EXPECT_EQ(logged.first, it->second.first)
        << "gamma at ts " << at.first << " coflow " << at.second;
    EXPECT_EQ(logged.second, it->second.second)
        << "key at ts " << at.first << " coflow " << at.second;
  }
}

class TraceExport : public ::testing::Test {
 protected:
  TraceExport() : trace_(tiny_trace()), cpu_(0.9) {
    const fabric::Fabric fabric(trace_.num_ports, common::mbps(100));
    auto sched = sim::make_scheduler("FVDF");
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    config.sink = &tracer_;
    metrics_ = sim::run_simulation(trace_, fabric, cpu_, *sched, config);

    std::ostringstream oss;
    tracer_.write_chrome_trace(oss);
    doc_ = obs::parse_json(oss.str());
  }

  // Events of a given name, each as a pointer into doc_.
  std::vector<const obs::JsonValue*> events_named(const std::string& name) {
    std::vector<const obs::JsonValue*> out;
    for (const obs::JsonValue& ev : doc_.find("traceEvents")->array)
      if (const obs::JsonValue* n = ev.find("name"); n && n->string == name)
        out.push_back(&ev);
    return out;
  }

  workload::Trace trace_;
  cpu::ConstantCpu cpu_;
  obs::Tracer tracer_;
  sim::Metrics metrics_;
  obs::JsonValue doc_;
};

TEST_F(TraceExport, WellFormedChromeTraceEnvelope) {
  ASSERT_TRUE(doc_.is_object());
  const obs::JsonValue* events = doc_.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->array.size(), 10u);
  EXPECT_EQ(tracer_.dropped(), 0u);

  // Every event carries the mandatory trace_event fields.
  for (const obs::JsonValue& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_NE(ev.find("name"), nullptr);
    EXPECT_NE(ev.find("ph"), nullptr);
    EXPECT_NE(ev.find("ts"), nullptr);
    EXPECT_NE(ev.find("pid"), nullptr);
    EXPECT_NE(ev.find("tid"), nullptr);
  }

  // The two process_name metadata records label the sim/wall timelines.
  std::set<std::string> process_names;
  for (const obs::JsonValue* m : events_named("process_name"))
    process_names.insert(m->find("args")->find("name")->string);
  EXPECT_TRUE(process_names.count("simulated-time"));
  EXPECT_TRUE(process_names.count("wall-clock"));
}

TEST_F(TraceExport, TimestampsMonotonicallyOrdered) {
  double prev = -1.0;
  for (const obs::JsonValue& ev : doc_.find("traceEvents")->array) {
    if (ev.find("ph")->string == "M") continue;  // metadata pins ts=0
    const double ts = ev.find("ts")->number;
    EXPECT_GE(ts, prev);
    prev = ts;
  }
}

TEST_F(TraceExport, DurationEventsFormMatchedPairs) {
  // Per-(pid, tid) track, 'B' and 'E' must nest like parentheses with
  // matching names — this is what makes the trace loadable in Perfetto.
  std::map<std::pair<double, double>, std::vector<std::string>> stacks;
  int pairs = 0;
  for (const obs::JsonValue& ev : doc_.find("traceEvents")->array) {
    const std::string& ph = ev.find("ph")->string;
    if (ph != "B" && ph != "E") continue;
    auto& stack = stacks[{ev.find("pid")->number, ev.find("tid")->number}];
    if (ph == "B") {
      stack.push_back(ev.find("name")->string);
    } else {
      ASSERT_FALSE(stack.empty()) << "'E' without opening 'B'";
      EXPECT_EQ(stack.back(), ev.find("name")->string);
      stack.pop_back();
      ++pairs;
    }
  }
  for (const auto& [track, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed 'B' on tid " << track.second;
  EXPECT_GT(pairs, 0);  // sim.schedule / fvdf.allocate scopes fired
}

TEST_F(TraceExport, SchedulerDecisionEventsCoverArrivalsAndMatchFullRecompute) {
  // The traced run takes the incremental path, which logs Γ_C (gamma),
  // priority, the effective key and per-flow β decisions for exactly the
  // coflows each round re-evaluates — not every coflow every round.
  std::set<std::pair<double, double>> estimated;  // (ts, coflow)
  for (const obs::JsonValue* ev : events_named("coflow_estimate")) {
    const obs::JsonValue* args = ev->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->find("gamma"), nullptr);
    EXPECT_NE(args->find("priority"), nullptr);
    EXPECT_NE(args->find("key"), nullptr);
    estimated.insert({ev->find("ts")->number, args->find("coflow")->number});
  }
  ASSERT_FALSE(estimated.empty());
  const auto betas = events_named("beta_decision");
  ASSERT_FALSE(betas.empty());
  for (const obs::JsonValue* ev : betas)
    EXPECT_NE(ev->find("args")->find("beta"), nullptr);

  // 1. Every coflow is evaluated at its arrival round: the first scheduling
  //    round at or after its arrival instant. Arrival events carry the
  //    trace id; estimates carry the engine's dense id (trace position).
  std::vector<double> round_ts;
  for (const obs::JsonValue* ev : events_named("schedule_round"))
    round_ts.push_back(ev->find("ts")->number);
  std::map<double, double> dense_of;
  for (std::size_t i = 0; i < trace_.coflows.size(); ++i)
    dense_of[static_cast<double>(trace_.coflows[i].id)] =
        static_cast<double>(i);
  const auto arrivals = events_named("coflow_arrival");
  ASSERT_EQ(arrivals.size(), trace_.coflows.size());
  for (const obs::JsonValue* ev : arrivals) {
    const double arrival = ev->find("ts")->number;
    const double coflow = dense_of.at(ev->find("args")->find("coflow")->number);
    const auto round =
        std::lower_bound(round_ts.begin(), round_ts.end(), arrival - 1e-3);
    ASSERT_NE(round, round_ts.end()) << "coflow " << coflow;
    EXPECT_TRUE(estimated.count({*round, coflow}))
        << "coflow " << coflow << " arrival round " << *round;
  }

  // 2. Each logged estimate is the one the full recompute logs at the same
  //    instant for the same coflow.
  expect_estimates_match_full_recompute(trace_, "FVDF");
}

TEST_F(TraceExport, DeadlineEstimatesMatchFullRecompute) {
  // DEADLINE-FVDF re-bands estimates (EDF keys, degraded Γ): both paths log
  // the Γ and key the rank order used, not the plain FVDF ones.
  workload::GeneratorConfig gen;
  gen.num_ports = 10;
  gen.num_coflows = 30;
  gen.mean_interarrival = 0.3;
  gen.size_lo = 1e5;
  gen.size_hi = 2e8;
  gen.size_alpha = 0.2;
  gen.width_lo = 1;
  gen.width_hi = 5;
  gen.seed = 3;
  gen.deadline_fraction = 0.7;
  gen.deadline_ref_bandwidth = common::mbps(100);
  expect_estimates_match_full_recompute(workload::generate_trace(gen),
                                        "DEADLINE-FVDF");
}

TEST_F(TraceExport, LifecycleEventsMatchSimulationOutcome) {
  EXPECT_EQ(events_named("coflow_arrival").size(), trace_.coflows.size());
  EXPECT_EQ(events_named("coflow_complete").size(), metrics_.coflows.size());
  EXPECT_EQ(events_named("flow_complete").size(), metrics_.flows.size());

  // Completion instants carry the CCT the metrics recorded.
  for (const obs::JsonValue* ev : events_named("coflow_complete"))
    EXPECT_GT(ev->find("args")->find("cct")->number, 0.0);
}

TEST_F(TraceExport, RegistryAgreesWithTraceEvents) {
  obs::Registry& reg = tracer_.registry();
  EXPECT_EQ(reg.counter("sim.coflows_arrived").value(), trace_.coflows.size());
  EXPECT_EQ(reg.counter("sim.coflows_completed").value(),
            metrics_.coflows.size());
  EXPECT_EQ(reg.counter("sim.schedule_rounds").value(),
            events_named("schedule_round").size());
  // Profiling histograms captured the schedule and advance phases.
  EXPECT_GT(reg.histogram("prof.sim.schedule").count(), 0u);
  EXPECT_GT(reg.histogram("prof.sim.advance").count(), 0u);
  EXPECT_GT(reg.histogram("prof.fvdf.allocate").count(), 0u);
}

TEST_F(TraceExport, JsonlExportParsesLineByLine) {
  std::ostringstream oss;
  tracer_.write_jsonl(oss);
  std::istringstream iss(oss.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(iss, line)) {
    const obs::JsonValue ev = obs::parse_json(line);
    ASSERT_TRUE(ev.is_object());
    ++lines;
  }
  EXPECT_EQ(lines, tracer_.size());
}

}  // namespace
}  // namespace swallow
