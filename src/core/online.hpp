// Online FVDF scheduler (the paper's Pseudocode 3) wrapped in the common
// Scheduler interface: the priority-class Upgrade that guarantees
// starvation freedom, and the one FVDF implementation behind "FVDF", its
// ablations and "DEADLINE-FVDF".
//
// The rank policy is the only thing DEADLINE-FVDF changes (DESIGN.md
// section 12). Blind FVDF ranks every coflow in band 2 by adjusted Γ_C
// (Γ_C / priority class). The deadline policy prefixes DCoflow-style
// feasibility bands, walked in order:
//
//   band 0  starvation-promoted best-effort coflows (priority class reached
//           kStarvationPriority while a deadline coflow was resident), FVDF
//           order;
//   band 1  deadline coflows whose Eq. 3/7/8 completion estimate (including
//           compression CPU cost and current per-port capacity multipliers)
//           still fits the slack — EDF order, disposed over the slack
//           (Varys-style pacing) rather than over Γ;
//   band 2  best-effort and expired-deadline coflows, plain FVDF order;
//   band 3  deferred deadline coflows: infeasible on the fabric as it
//           stands, parked on leftovers until capacity recovers or the
//           deadline expires — EDF order.
//
// A deadline coflow whose compressed Γ misses the slack but whose
// uncompressed Γ fits is degraded for the round (β forced 0) before it is
// deferred. From the first round at which any link is degraded the policy
// falls back to plain FVDF order for the rest of the run (sticky, and
// checkpointed). With zero finite deadlines every coflow lands in band 2
// with FVDF's exact key, so DEADLINE-FVDF is bit-identical to FVDF.
//
// When the context carries a DirtyTracker, traced or not, schedule() runs
// the incremental path (DESIGN.md section 11): per-coflow Γ components are
// memoized, the rank order lives in a RankIndex keyed (band, primary,
// arrival, id), and each decision point re-evaluates only the coflows the
// dirty set names — plus, under the deadline policy, the coflows whose
// horizon says time alone is about to flip their band. A traced round logs
// coflow_estimate/beta_decision for exactly those coflows. The allocations
// are bit-for-bit identical to the full recompute — test_engine_parity,
// test_incremental and test_slo enforce this.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/fvdf.hpp"
#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sched/scheduler.hpp"

namespace swallow::core {

/// Pseudocode 3's logbase: each scheduling event multiplies every waiting
/// coflow's priority class by this factor.
inline constexpr double kPriorityLogBase = 1.2;

/// Priority class at which a starved best-effort coflow is promoted ahead
/// of the deadline band: kPriorityLogBase^12, twelve consecutive coflow
/// events with zero service.
inline constexpr double kStarvationPriority = 8.916100448256;

struct FvdfOptions {
  bool upgrade = true;             ///< run Upgrade at every coflow event
  bool compression = true;         ///< allow beta = 1 (ablation knob)
  bool backfill = true;            ///< work-conserving pass (ablation knob)
  bool force_compression = false;  ///< bypass the Eq. 3 gate (ablation)
  bool deadlines = false;          ///< DEADLINE-FVDF's band rank policy
};

class FvdfScheduler final : public sched::Scheduler {
 public:
  explicit FvdfScheduler(FvdfOptions options = {});
  std::string name() const override;
  fabric::Allocation schedule(const sched::SchedContext& ctx) override;

  /// Serializes the starvation round stamps and the sticky fault-fallback
  /// flag (the only state a restored run cannot rederive); the incremental
  /// caches and the horizon heap are session-keyed and rebuilt on the
  /// first post-restore round.
  void save_state(recovery::StateWriter& w) const override;
  void restore_state(recovery::StateReader& r) override;

  const FvdfOptions& options() const { return options_; }

 private:
  /// One coflow's slot on the band ladder for the current instant.
  struct SloRank {
    std::uint8_t band = kFvdfBand;
    double primary = 0;         ///< deadline (bands 1/3) or adjusted Gamma
    common::Seconds gamma = 0;  ///< effective Gamma (uncompressed if degraded)
    bool degrade = false;       ///< beta forced 0 this round
    /// Earliest instant at which time alone can change this
    /// classification; kNoDeadline when only events can.
    common::Seconds horizon = fabric::kNoDeadline;
  };
  /// The rank policy. `has_beta` short-circuits the uncompressed
  /// re-evaluation when no flow chose compression (Gamma_nc would equal
  /// Gamma bit-for-bit anyway).
  template <typename GammaNcFn>
  SloRank classify(const fabric::Coflow& c, common::Seconds gamma_beta,
                   bool has_beta, common::Seconds now,
                   GammaNcFn&& gamma_nc) const;
  bool starved(const fabric::Coflow& c) const;
  /// Coflows that count toward deadline_resident_ (deadline policy only).
  bool counts_deadline(const fabric::Coflow& c) const {
    return options_.deadlines && c.has_deadline() &&
           c.slo != fabric::SloClass::kRejected;
  }

  fabric::Allocation schedule_full(const sched::SchedContext& ctx);
  fabric::Allocation schedule_incremental(const sched::SchedContext& ctx);
  /// Re-evaluates a dirty coflow's flows (Eq. 7/8) and its band, refreshing
  /// its cache entry and its rank-index slot; traced, it logs one
  /// beta_decision per flow and one coflow_estimate.
  void refresh_coflow(const sched::SchedContext& ctx, const EvalEnv& env,
                      const EvalEnv& nc_env, const fabric::Coflow& c);
  /// Re-derives the rank key (and the band-0/2 promotion) from cached Γ:
  /// key-only dirt, the priority class moved. Bands 1/3 key on the
  /// deadline, so for them this is a no-op. Returns the primary key.
  double rekey_coflow(const fabric::Coflow& c);
  void drop_coflow(fabric::CoflowId id);

  FvdfOptions options_;

  // --- starvation bookkeeping (both paths) ---
  // Round-stamped replacement for a "starved" id set: a coflow is waiting
  // iff it was seen in the previous round (seen == round-1) and was not
  // served there (served != round-1). Default stamps of 0 are safe: at
  // round 1 both compare equal to prev = 0, so nothing counts as starved.
  std::uint64_t round_ = 0;
  std::vector<std::uint64_t> seen_round_;    ///< by dense coflow id
  std::vector<std::uint64_t> served_round_;  ///< by dense coflow id
  /// Sticky fault fallback (deadline policy only): the fabric has been
  /// degraded at some scheduling round of this run, and every coflow takes
  /// the plain FVDF rank from that round on. Checkpointed: fallback must
  /// survive a crash-restore into a currently-healthy window.
  bool seen_degraded_ = false;
  /// Whether any resident coflow carries a finite deadline, as of the
  /// current classification point: band-0 promotion exists only then.
  bool any_deadline_ = false;

  // --- incremental state, valid for one tracker session ---
  /// One memoized allocation lane per unfinished flow of a cached coflow.
  struct Lane {
    fabric::FlowId id = 0;
    fabric::PortId src = 0;
    fabric::PortId dst = 0;
    bool beta = false;
    /// Disposal rate f.V / max(Γ, slice), cached at refresh time so the
    /// admission walk is pure table lookups. Meaningless when beta, and
    /// replaced by a live deadline-paced want in band 1.
    common::Bps want = 0;
  };
  struct CachedCoflow {
    common::Seconds gamma = 0;  ///< effective Eq. 8 Γ backing the rank key
    common::Seconds arrival = 0;
    std::uint8_t band = kFvdfBand;
    bool valid = false;
    bool has_xmit = false;  ///< any non-beta lane (member of xmit_index_)
    bool has_beta = false;  ///< any beta lane: counts as served (Upgrade)
    bool counted = false;   ///< contributes to deadline_resident_
    std::vector<Lane> lanes;
  };
  sched::DirtyWalk dirty_walk_;
  std::vector<CachedCoflow> cache_;  ///< by dense coflow id
  /// The coflows with at least one transmitting lane, in rank order. Only
  /// these can take port headroom, so the disposal walk runs over this
  /// index alone; beta-only coflows never touch headroom, and skipping them
  /// leaves the walk order's grants bit-identical to the full path's
  /// all-coflow walk. The walk stops at port exhaustion, which on a loaded
  /// fabric with many ports rarely comes: expect it to visit every
  /// transmitting coflow.
  sched::RankIndex xmit_index_;
  /// One transmitting lane as the disposal walk met it.
  struct WalkLane {
    fabric::FlowId id = 0;
    fabric::PortId src = 0;
    fabric::PortId dst = 0;
    fabric::CoflowId coflow = 0;
  };
  /// The disposal walk's lanes in walk order, reused across rounds: the
  /// backfill pass scans this array instead of walking the index again.
  std::vector<WalkLane> walk_;
  /// Persistent per-flow beta switches, mirrored from the cached lanes and
  /// bulk-installed into each round's Allocation (set_compress_all). Spares
  /// the O(compressing flows) per-round set_compress loop.
  std::vector<unsigned char> beta_;  ///< by dense flow id
  /// Resident coflows carrying a finite deadline (deadline policy only).
  std::size_t deadline_resident_ = 0;
  /// Set when deadline_resident_ crosses zero: band-0 eligibility is
  /// global, so every cached band-0/2 key can move.
  bool need_global_rekey_ = false;
  /// Lazy min-heap of (horizon, coflow), empty under blind FVDF: popped and
  /// refreshed when the horizon falls within one slice of now. Over-popping
  /// is safe — classify is authoritative — and refresh_coflow re-arms the
  /// next horizon, so a coflow is refreshed at most once per round
  /// (horizon_round_ stamps).
  std::priority_queue<std::pair<common::Seconds, fabric::CoflowId>,
                      std::vector<std::pair<common::Seconds, fabric::CoflowId>>,
                      std::greater<>>
      horizon_heap_;
  std::vector<std::uint64_t> horizon_round_;  ///< by dense coflow id
  std::vector<fabric::CoflowId> horizon_due_;  ///< scratch for the pop loop
};

/// Factory matching sched::make_baseline's shape. Recognized names:
/// "FVDF" (full), "FVDF-NC" (compression off), "FVDF-NOUPGRADE",
/// "FVDF-NOBACKFILL", "FVDF-BLIND", and "DEADLINE-FVDF"/"DFVDF" (the
/// deadline rank policy). Throws std::out_of_range otherwise, listing every
/// known scheduler name.
std::unique_ptr<sched::Scheduler> make_fvdf(const std::string& name);

}  // namespace swallow::core
