// Scheduler interface shared by the baselines and FVDF.
//
// The simulation engine invokes schedule() at every preemption point (coflow
// arrival, flow/coflow completion, compression-finished) observed at a slice
// boundary. A scheduler returns a complete Allocation: per-flow transmit
// rates plus the per-flow compression switch. Only FVDF ever enables
// compression; the paper's baselines are pure transmission schedulers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codec/codec_model.hpp"
#include "cpu/cpu_model.hpp"
#include "fabric/allocation.hpp"
#include "fabric/coflow.hpp"
#include "fabric/fabric.hpp"
#include "recovery/state_io.hpp"

namespace swallow::obs {
class Sink;
}

namespace swallow::sched {

class DirtyTracker;

struct SchedContext {
  const fabric::Fabric* fabric = nullptr;
  const cpu::CpuProvider* cpu = nullptr;
  common::Seconds now = 0;
  common::Seconds slice = common::kDefaultSlice;
  /// Unfinished flows of arrived coflows.
  std::vector<const fabric::Flow*> flows;
  /// Arrived, uncompleted coflows. Mutable: FVDF updates priority classes.
  std::vector<fabric::Coflow*> coflows;
  /// Optional coflow grouping of `flows`: when non-empty it has
  /// coflows.size() + 1 entries and the unfinished flows of coflows[i] are
  /// exactly flows[coflow_flow_offsets[i], coflow_flow_offsets[i+1]).
  /// The simulation engine keeps all three lists as its persistent live
  /// set (arrivals append, folds compact), letting core::time_calculation
  /// skip its per-round hash-map rebuild. Hand-built contexts may leave it
  /// empty; consumers must fall back to grouping by Flow::coflow themselves.
  std::vector<std::size_t> coflow_flow_offsets;
  bool grouped() const {
    return coflow_flow_offsets.size() == coflows.size() + 1;
  }
  /// Codec available for compression; nullptr disables compression globally.
  const codec::CodecModel* codec = nullptr;
  /// True when this preemption point is a coflow arrival or completion
  /// (the paper's Pseudocode 3 upgrades priority classes only then; flow
  /// completions and compression-finished events reschedule without aging).
  bool coflow_event = true;
  /// Observability sink for per-decision trace events (Γ_C, priority
  /// classes, β switches, starvation promotions). Null disables tracing at
  /// the cost of one branch per site. It never selects a code path: a
  /// traced incremental round logs estimates only for the coflows it
  /// re-evaluates.
  obs::Sink* sink = nullptr;
  /// Incremental-scheduling event feed (dirty.hpp), owned by the simulation
  /// engine. Null for hand-built contexts, the slice-stepped reference path
  /// and `incremental_sched = false`, in which case schedulers run their
  /// full-recompute path; otherwise they run the incremental one, traced or
  /// not.
  DirtyTracker* tracker = nullptr;
  /// Per-port CPU headroom and compression gate at `now`, read once per
  /// decision point: the dirty tracker's CPU rule, the Eq. 3 gate and
  /// Eq. 7 all price from it. The engine takes it before schedule();
  /// core::eval_env takes it for a hand-built context whose sample does
  /// not hold for (cpu, fabric ports, now).
  mutable cpu::CpuSample cpu_sample;
  /// Scratch for transmittable_flows(): reused across rounds so the stall
  /// filter stops allocating once its capacity stabilizes.
  mutable std::vector<const fabric::Flow*> transmittable_scratch;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  virtual fabric::Allocation schedule(const SchedContext& ctx) = 0;

  /// Checkpoint/restore hooks (DESIGN.md section 13). A scheduler saves
  /// exactly its *non-derivable* mutable state — for FVDF variants the
  /// starvation round stamps; session-keyed incremental caches (rank
  /// indexes, Γ memos, β tables, horizon heaps) are deliberately excluded:
  /// they are rebuilt from scratch when the scheduler sees the restored
  /// run's fresh DirtyTracker session, and the PR 6 invariant (incremental
  /// ≡ full recompute, bit for bit) makes the rebuild byte-equivalent to
  /// the warm caches. Stateless schedulers inherit these no-ops.
  /// restore_state must also drop any live incremental bindings so a
  /// reused instance cannot serve stale-session state.
  virtual void save_state(recovery::StateWriter& w) const { (void)w; }
  virtual void restore_state(recovery::StateReader& r) { (void)r; }
};

/// Flows sorted by a coflow-level key: every flow of the first coflow
/// precedes every flow of the second, flows within a coflow keep id order.
/// Shared by FIFO(coflow mode)/SEBF/SCF/NCF/LCF-style orderings.
std::vector<const fabric::Flow*> order_flows_by_coflow(
    const SchedContext& ctx, const std::vector<fabric::CoflowId>& coflow_order);
std::vector<const fabric::Flow*> order_flows_by_coflow(
    std::vector<const fabric::Flow*> flows,
    const std::vector<fabric::CoflowId>& coflow_order);

/// True when the flow cannot transmit at this instant: its source or
/// destination port has zero *current* capacity (failed link under the
/// degradation model). Such flows stall — they take no allocation slot and
/// accrue waiting time until the link recovers.
inline bool link_stalled(const fabric::Flow& flow,
                         const fabric::Fabric& fabric) {
  return fabric.ingress_capacity(flow.src) <= 0.0 ||
         fabric.egress_capacity(flow.dst) <= 0.0;
}

/// ctx.flows minus the stalled ones (order preserved). Every policy
/// allocates over this set, so rates are always priced against current
/// port capacities and a failed link never absorbs an allocation.
/// The result lives in ctx.transmittable_scratch and is reused across
/// rounds: it stays valid until the next transmittable_flows() call on the
/// same context, so callers that mutate the order must copy it first.
const std::vector<const fabric::Flow*>& transmittable_flows(
    const SchedContext& ctx);

}  // namespace swallow::sched
