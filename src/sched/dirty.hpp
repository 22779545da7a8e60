// Dirty-set propagation for incremental scheduling (DESIGN.md section 11).
//
// The simulation engine owns one DirtyTracker per run and feeds it every
// event that can change a coflow's scheduling inputs: coflow arrivals, flow
// and compression completions, per-port capacity-multiplier changes,
// CPU-headroom changes and priority upgrades. A scheduler consumes the
// accumulated set at each decision point and recomputes only the marked
// coflows; everything else keeps its memoized Γ components and its slot in
// the rank index (rank_index.hpp). Port-indexed reverse maps (fabric port →
// resident coflows) make capacity and CPU events precise: a brownout on
// port p dirties exactly the coflows with a flow incident on p.
//
// Correctness contract: over-dirtying is always safe — recomputing a clean
// coflow reproduces its cached values bit-for-bit — while under-dirtying
// silently desynchronizes the cache, so every mark below errs on the side
// of marking. Flow and coflow ids must be dense (the engine's are). The
// tracker is single-producer single-consumer within one run; `session()` is
// process-unique so a scheduler can detect that it is seeing a different
// run (or a restarted one) and rebuild from scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "fabric/coflow.hpp"

namespace swallow::sched {

/// How much of a coflow's cached scheduling state an event invalidated.
enum class DirtyLevel : std::uint8_t {
  kClean = 0,
  /// Only the priority class moved: Γ_C stands, the rank key must be
  /// re-derived (adjusted Γ = Γ / priority) — a pure decrease/increase-key.
  kKeyOnly = 1,
  /// Volumes, membership, port capacities or CPU headroom changed: the Γ
  /// components must be recomputed from the flow set.
  kRecompute = 2,
};

class DirtyTracker {
 public:
  explicit DirtyTracker(std::size_t num_ports);
  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// Process-unique id of this tracker instance; schedulers key their
  /// caches on it so stale state from a previous run can never leak in.
  std::uint64_t session() const { return session_; }

  /// Binds the engine's dense flow table. The pointer must stay valid (no
  /// reallocation) for the tracker's lifetime — the engine reserves its
  /// flow vector up front, so this holds by construction.
  void bind_flows(const fabric::Flow* flows, std::size_t count);
  const fabric::Flow& flow(fabric::FlowId id) const { return flows_[id]; }
  std::size_t flow_count() const { return flow_count_; }

  // ---- producer side (the engine's event loop) ----

  /// A coflow arrived: registers its flows' port residency and marks it for
  /// recompute. The pointer must stay valid for the tracker's lifetime.
  void coflow_arrived(const fabric::Coflow* c);
  /// Membership or volume changed inside the coflow (flow completion,
  /// compression-finished event).
  void coflow_changed(fabric::CoflowId c);
  /// The coflow was served by the previous allocation (positive rate or
  /// β = 1 on some flow): its volumes drained, so Γ is stale.
  void flow_progressed(fabric::CoflowId c);
  /// Priority class moved (Pseudocode 3's Upgrade): key-only.
  void priority_changed(fabric::CoflowId c);
  /// A port's capacity multiplier changed: dirties exactly the coflows
  /// resident on the port (and lazily prunes completed residents).
  void port_capacity_changed(fabric::PortId p);
  /// Compares the decision point's per-port CPU sample (headroom and the
  /// Eq. 3 can_compress gate) with the previous one, and dirties the
  /// coflows sourced at ports whose values changed. Call once per decision
  /// point, before schedule(); the sample covers every port.
  void sample_cpu(const cpu::CpuSample& sample);

  // ---- consumer side (the scheduler) ----

  /// The registered coflow, or nullptr if the id never arrived.
  const fabric::Coflow* coflow(fabric::CoflowId c) const {
    return c < coflows_.size() ? coflows_[c] : nullptr;
  }
  /// Ids marked since the last consume(), in first-marked order.
  const std::vector<fabric::CoflowId>& dirty() const { return dirty_; }
  DirtyLevel level(fabric::CoflowId c) const {
    return c < level_.size() ? level_[c] : DirtyLevel::kClean;
  }
  /// Clears the dirty set. Single consumer: DirtyWalk::run calls it once
  /// per decision point.
  void consume();

  // ---- introspection (tests) ----
  const std::vector<fabric::CoflowId>& src_residents(fabric::PortId p) const {
    return src_residents_[p];
  }
  const std::vector<fabric::CoflowId>& dst_residents(fabric::PortId p) const {
    return dst_residents_[p];
  }

 private:
  void mark(fabric::CoflowId c, DirtyLevel lvl);
  /// Marks every live resident in `v` for recompute, compacting out the
  /// completed ones as it goes (lazy pruning: no removal on completion).
  void dirty_residents(std::vector<fabric::CoflowId>& v);

  std::uint64_t session_;
  const fabric::Flow* flows_ = nullptr;
  std::size_t flow_count_ = 0;

  std::vector<const fabric::Coflow*> coflows_;  ///< by dense coflow id
  std::vector<DirtyLevel> level_;               ///< by dense coflow id
  std::vector<fabric::CoflowId> dirty_;

  /// Port → coflows with a flow sourced / sinking there. Registration
  /// dedupes per coflow; entries outlive completion until lazily pruned.
  std::vector<std::vector<fabric::CoflowId>> src_residents_;
  std::vector<std::vector<fabric::CoflowId>> dst_residents_;

  /// Last-sampled per-port CPU state for change detection.
  std::vector<double> cpu_headroom_;
  std::vector<char> cpu_gate_;
  bool cpu_sampled_ = false;
};

/// The consumer side of one decision point, shared by every incremental
/// scheduler (FVDF, SEBF, AALO). It owns the scheduler's binding to one
/// tracker session. On first sight of a session (a new run, a restored one,
/// or after reset()) it calls `clear()` and then `visit(coflow, kRecompute)`
/// for every coflow in `live`, as if all were dirty; otherwise it calls
/// `visit(coflow, level)` for every dirty coflow that arrived, in
/// first-marked order. Either way it consumes the set, so the scheduler
/// keeps only its policy — refresh, re-key, drop.
class DirtyWalk {
 public:
  template <typename Clear, typename Visit>
  void run(DirtyTracker& tracker, const std::vector<fabric::Coflow*>& live,
           Clear&& clear, Visit&& visit) {
    if (tracker_ != &tracker || session_ != tracker.session()) {
      tracker_ = &tracker;
      session_ = tracker.session();
      clear();
      for (const fabric::Coflow* c : live) visit(*c, DirtyLevel::kRecompute);
    } else {
      for (const fabric::CoflowId id : tracker.dirty())
        if (const fabric::Coflow* c = tracker.coflow(id))
          visit(*c, tracker.level(id));
    }
    tracker.consume();
  }

  /// Forgets the bound session: the next run() rebuilds.
  void reset() {
    tracker_ = nullptr;
    session_ = 0;
  }

 private:
  const DirtyTracker* tracker_ = nullptr;
  std::uint64_t session_ = 0;
};

}  // namespace swallow::sched
