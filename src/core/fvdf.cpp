#include "core/fvdf.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.hpp"

namespace swallow::core {

common::Bytes delta_c(const codec::CodecModel& codec, common::Seconds slice,
                      double cpu_headroom) {
  return codec.delta_c(slice, cpu_headroom);
}

common::Bytes delta_t(common::Bps bandwidth, common::Seconds slice) {
  return bandwidth * slice;
}

common::Seconds expected_fct(const fabric::Flow& flow, bool beta,
                             const codec::CodecModel& codec,
                             double cpu_headroom, common::Bps bandwidth,
                             common::Seconds slice) {
  if (bandwidth <= 0) throw std::invalid_argument("expected_fct: B <= 0");
  // Eq. 1 with the flow's own ratio when the workload specifies one: the
  // expression of CodecModel::delta_c, term for term, so the bits match.
  const common::Bytes disposal =
      beta ? codec.compress_speed * std::clamp(cpu_headroom, 0.0, 1.0) *
                 slice * (1.0 - flow.effective_ratio(codec.ratio))
           : delta_t(bandwidth, slice);
  const common::Bytes rest = std::max(0.0, flow.volume() - disposal);
  return slice + rest / bandwidth;
}

[[gnu::noinline]] void emit_beta_decision(const sched::SchedContext& ctx,
                                          const fabric::Flow& f, bool beta,
                                          common::Seconds fct) {
  obs::emit_instant(ctx.sink, obs::sim_ts(ctx.now), "beta_decision", "fvdf",
                    obs::Args()
                        .add("flow", std::int64_t(f.id))
                        .add("coflow", std::int64_t(f.coflow))
                        .add("beta", beta)
                        .add("expected_fct", fct)
                        .str());
}

[[gnu::noinline]] void emit_coflow_estimate(const sched::SchedContext& ctx,
                                            const fabric::Coflow& c,
                                            common::Seconds gamma,
                                            double key) {
  obs::emit_instant(ctx.sink, obs::sim_ts(ctx.now), "coflow_estimate", "fvdf",
                    obs::Args()
                        .add("coflow", std::int64_t(c.id))
                        .add("gamma", gamma)
                        .add("priority", c.priority)
                        .add("key", key)
                        .str());
}

EvalEnv eval_env(const sched::SchedContext& ctx) {
  EvalEnv env{ctx.fabric, nullptr, ctx.codec, ctx.now, ctx.slice};
  if (ctx.cpu != nullptr) {
    const std::size_t ports = ctx.fabric->num_ports();
    if (!ctx.cpu_sample.holds(*ctx.cpu, ports, ctx.now))
      ctx.cpu_sample.take(*ctx.cpu, ports, ctx.now);
    env.cpu = &ctx.cpu_sample;
  }
  return env;
}

[[gnu::noinline]] FlowEval evaluate_flow(const EvalEnv& env,
                                         const fabric::Flow& f,
                                         bool force_compression) {
  bool beta = false;
  double headroom = 0.0;
  const common::Bps bandwidth = flow_bottleneck(f, *env.fabric);
  if (env.codec != nullptr && env.cpu != nullptr) {
    const bool gate = env.cpu->can_compress(f.src);
    const CompressionDecision d = compression_strategy(
        f, *env.codec, env.cpu->headroom(f.src), gate, *env.fabric);
    headroom = d.cpu_headroom;
    beta = d.enabled ||
           (force_compression && f.compressible &&
            f.raw_remaining > fabric::kVolumeEpsilon && gate);
  }
  // A failed link (current bottleneck 0) makes Eq. 7 unbounded: the flow
  // cannot transmit until the port recovers, so its coflow ranks last
  // regardless of priority — exactly what volume disposal wants, since
  // spending bandwidth elsewhere is always better. Compression may still
  // run (Eq. 3 holds trivially at B = 0), disposing raw volume while the
  // flow waits.
  common::Seconds fct;
  if (bandwidth <= 0) {
    fct = std::numeric_limits<common::Seconds>::infinity();
  } else {
    // Eq. 7 needs a codec even when beta is false; the term vanishes.
    const codec::CodecModel& model =
        env.codec != nullptr ? *env.codec : codec::default_codec_model();
    fct = expected_fct(f, beta, model, headroom, bandwidth, env.slice);
  }
  return FlowEval{beta, fct};
}

std::vector<CoflowEstimate> time_calculation(const sched::SchedContext& ctx,
                                             bool compression,
                                             bool force_compression) {
  EvalEnv env = eval_env(ctx);
  if (!compression) env.codec = nullptr;
  // Group unfinished flows by coflow. The engine hands the grouping over in
  // coflow_flow_offsets (it walks coflow-by-coflow anyway), so the common
  // path is a flat slice per coflow; hand-built contexts without offsets
  // fall back to the historical hash-map rebuild.
  std::unordered_map<fabric::CoflowId, std::vector<const fabric::Flow*>>
      by_coflow;
  const bool grouped = ctx.grouped();
  if (!grouped) {
    for (const fabric::Flow* f : ctx.flows)
      if (!f->done()) by_coflow[f->coflow].push_back(f);
  }

  std::vector<CoflowEstimate> estimates;
  estimates.reserve(ctx.coflows.size());
  for (std::size_t ci = 0; ci < ctx.coflows.size(); ++ci) {
    fabric::Coflow* c = ctx.coflows[ci];
    CoflowEstimate est;
    if (grouped) {
      const std::size_t begin = ctx.coflow_flow_offsets[ci];
      const std::size_t end = ctx.coflow_flow_offsets[ci + 1];
      if (begin == end) continue;
      est.flows.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i)
        if (!ctx.flows[i]->done()) est.flows.push_back(ctx.flows[i]);
      if (est.flows.empty()) continue;
    } else {
      const auto it = by_coflow.find(c->id);
      if (it == by_coflow.end()) continue;
      est.flows = it->second;
    }
    est.coflow = c;
    est.beta.reserve(est.flows.size());

    for (const fabric::Flow* f : est.flows) {
      const FlowEval ev = evaluate_flow(env, *f, force_compression);
      est.beta.push_back(ev.beta);
      est.gamma = std::max(est.gamma, ev.fct);  // Eq. 8
      if (ctx.sink != nullptr) [[unlikely]]
        emit_beta_decision(ctx, *f, ev.beta, ev.fct);
    }
    est.key = {fvdf_key(est.gamma, c->priority), c->arrival, c->id,
               kFvdfBand};
    est.dispose = std::max(est.gamma, ctx.slice);
    estimates.push_back(std::move(est));
  }
  return estimates;
}

fabric::Allocation fvdf_allocate(const sched::SchedContext& ctx,
                                 std::vector<CoflowEstimate> estimates,
                                 bool backfill) {
  std::stable_sort(estimates.begin(), estimates.end(),
                   [](const CoflowEstimate& a, const CoflowEstimate& b) {
                     return a.key < b.key;
                   });

  fabric::Allocation alloc;
  fabric::PortHeadroom headroom(*ctx.fabric);

  // Volume disposal (Pseudocode 2 lines 24-35): compressing flows use the
  // CPU this round (rate 0, ports left to others); transmitting flows get
  // the minimum rate that finishes them inside the disposal horizon, capped
  // by residual headroom. Later coflows see what is left, in order.
  for (const CoflowEstimate& est : estimates) {
    // Logged here, after any rank policy re-banded the estimate, so the
    // trace carries the Γ and key the order actually used.
    if (ctx.sink != nullptr) [[unlikely]]
      emit_coflow_estimate(ctx, *est.coflow, est.gamma, est.key.primary);
    for (std::size_t i = 0; i < est.flows.size(); ++i) {
      const fabric::Flow* f = est.flows[i];
      if (est.beta[i]) {
        alloc.set_compress(f->id, true);
        alloc.set_rate(f->id, 0.0);
        continue;
      }
      const common::Bps want = f->volume() / est.dispose;
      const common::Bps r = std::min(want, headroom.available(*f));
      alloc.set_rate(f->id, r);
      headroom.consume(*f, r);
    }
  }

  if (backfill) {
    // Work conservation: top transmitting flows up in coflow order.
    for (const CoflowEstimate& est : estimates) {
      for (std::size_t i = 0; i < est.flows.size(); ++i) {
        if (est.beta[i]) continue;
        const fabric::Flow* f = est.flows[i];
        const common::Bps extra = headroom.available(*f);
        if (extra <= 0) continue;
        alloc.set_rate(f->id, alloc.rate(f->id) + extra);
        headroom.consume(*f, extra);
      }
    }
  }
  return alloc;
}

}  // namespace swallow::core
