// Fastest-Volume-Disposal-First (the paper's Pseudocode 2).
//
// The offline primitives: per-flow expected FCT (Eq. 7), per-coflow expected
// CCT (Eq. 8), and the rate assignment r = f.V / Gamma_C with
// work-conserving backfill. The online wrapper (online.hpp) adds the
// priority-class starvation protection and DEADLINE-FVDF's rank policy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/compression_strategy.hpp"
#include "sched/rank_index.hpp"
#include "sched/scheduler.hpp"

namespace swallow::core {

/// Eq. 1: volume disposed by one compression slice.
common::Bytes delta_c(const codec::CodecModel& codec, common::Seconds slice,
                      double cpu_headroom);

/// Eq. 2: volume disposed by one transmission slice at bandwidth B.
common::Bytes delta_t(common::Bps bandwidth, common::Seconds slice);

/// Eq. 7: expected FCT assuming the worst case that compression is disabled
/// after the current slice. `beta` is the compression decision for the
/// coming slice.
common::Seconds expected_fct(const fabric::Flow& flow, bool beta,
                             const codec::CodecModel& codec,
                             double cpu_headroom, common::Bps bandwidth,
                             common::Seconds slice);

/// The inputs Eq. 3 / Eq. 7 read for one flow, detached from SchedContext
/// so the incremental path (online.hpp) can evaluate single flows — and the
/// FVDF-NC ablation can null out the codec — without copying a context.
struct EvalEnv {
  const fabric::Fabric* fabric = nullptr;
  /// Per-port CPU state at `now`; null (no CPU) disables compression.
  const cpu::CpuSample* cpu = nullptr;
  const codec::CodecModel* codec = nullptr;  ///< null disables compression
  common::Seconds now = 0;
  common::Seconds slice = common::kDefaultSlice;
};

/// The context's evaluation inputs. Its CPU terms come from
/// ctx.cpu_sample, which the engine takes at every decision point; a
/// hand-built context whose sample does not hold for (cpu, ports, now)
/// gets it taken here.
EvalEnv eval_env(const sched::SchedContext& ctx);

struct FlowEval {
  bool beta = false;        ///< compression decision for the coming slice
  common::Seconds fct = 0;  ///< Eq. 7 (+inf on a failed link)
};

/// One flow's compression decision and expected FCT. This is *the* Γ
/// kernel: both the batch TimeCalculation and the incremental refresh call
/// it, and it is deliberately out-of-line (noinline) so the two paths share
/// one instantiation — identical code, identical FP contraction, identical
/// bits. Inlining it into two different loops would let the compiler fuse
/// multiply-adds differently per call site and break the byte-identity
/// contract between the incremental and full-recompute schedulers.
FlowEval evaluate_flow(const EvalEnv& env, const fabric::Flow& f,
                       bool force_compression);

/// Trace events of one FVDF evaluation, shared by the batch path
/// (time_calculation, fvdf_allocate) and the incremental refresh
/// (online.cpp): `beta_decision` per flow (β, Eq. 7 FCT) and
/// `coflow_estimate` per coflow (ranked Γ, priority, primary key). Cold and
/// out-of-line; callers test ctx.sink first.
[[gnu::cold]] void emit_beta_decision(const sched::SchedContext& ctx,
                                      const fabric::Flow& f, bool beta,
                                      common::Seconds fct);
[[gnu::cold]] void emit_coflow_estimate(const sched::SchedContext& ctx,
                                        const fabric::Coflow& c,
                                        common::Seconds gamma, double key);

/// Plain FVDF's band on DEADLINE-FVDF's ladder (online.hpp): best-effort
/// work in Shortest-(adjusted)-Gamma order.
inline constexpr std::uint8_t kFvdfBand = 2;

/// Pseudocode 3's online rank key: Gamma_C divided by the priority class.
inline double fvdf_key(common::Seconds gamma, double priority) {
  return gamma / std::max(priority, 1.0);
}

struct CoflowEstimate {
  fabric::Coflow* coflow = nullptr;
  common::Seconds gamma = 0;  ///< Eq. 8 (raw, before priority)
  /// Admission order. time_calculation fills plain FVDF's key (kFvdfBand,
  /// Gamma_C / priority class); DEADLINE-FVDF's rank policy re-bands it.
  sched::CoflowRankKey key;
  /// Each transmitting flow asks for f.V / dispose (Pseudocode 2 line 29):
  /// max(Gamma_C, slice), stretched by deadline pacing.
  common::Seconds dispose = 0;
  std::vector<const fabric::Flow*> flows;
  std::vector<bool> beta;  ///< per-flow compression decision, aligned
};

/// TimeCalculation (Pseudocode 2 lines 12-23): evaluates the compression
/// strategy for every flow of every coflow and computes Gamma_C and the
/// plain FVDF rank key. `compression` false evaluates every flow as if the
/// context carried no codec (the FVDF-NC ablation); `force_compression`
/// bypasses the Eq. 3 gate (FVDF-BLIND: compress whenever the payload is
/// compressible and raw bytes remain).
std::vector<CoflowEstimate> time_calculation(const sched::SchedContext& ctx,
                                             bool compression = true,
                                             bool force_compression = false);

/// Volume disposal (Pseudocode 2 lines 24-35) over the estimates sorted by
/// key: compressing flows get rate 0 for the coming slices, transmitting
/// flows f.V / dispose capped by residual port headroom, later coflows see
/// what is left; `backfill` adds the work-conserving pass.
fabric::Allocation fvdf_allocate(const sched::SchedContext& ctx,
                                 std::vector<CoflowEstimate> estimates,
                                 bool backfill = true);

}  // namespace swallow::core
