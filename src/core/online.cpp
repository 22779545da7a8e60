#include "core/online.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <stdexcept>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"

namespace swallow::core {

namespace {

// Round stamps double as membership tests, so out-of-range reads must act
// like "never stamped" (0) rather than grow the table.
std::uint64_t stamp_of(const std::vector<std::uint64_t>& v,
                       fabric::CoflowId id) {
  return id < v.size() ? v[id] : 0;
}

void set_stamp(std::vector<std::uint64_t>& v, fabric::CoflowId id,
               std::uint64_t round) {
  if (id >= v.size()) v.resize(id + 1, 0);
  v[id] = round;
}

}  // namespace

FvdfScheduler::FvdfScheduler(FvdfOptions options) : options_(options) {}

std::string FvdfScheduler::name() const {
  std::string n = options_.deadlines ? "DEADLINE-FVDF" : "FVDF";
  if (!options_.compression) n += "-NC";
  if (options_.force_compression) n += "-BLIND";
  if (!options_.upgrade) n += "-NOUPGRADE";
  if (!options_.backfill) n += "-NOBACKFILL";
  return n;
}

bool FvdfScheduler::starved(const fabric::Coflow& c) const {
  // Band-0 promotion guards best-effort work against a monopolizing band 1;
  // in fault fallback there is no band 1, and promotion would only perturb
  // the plain FVDF order the fallback exists to reproduce.
  return any_deadline_ && !seen_degraded_ &&
         c.priority >= kStarvationPriority;
}

template <typename GammaNcFn>
FvdfScheduler::SloRank FvdfScheduler::classify(const fabric::Coflow& c,
                                               common::Seconds gamma_beta,
                                               bool has_beta,
                                               common::Seconds now,
                                               GammaNcFn&& gamma_nc) const {
  SloRank r;
  r.gamma = gamma_beta;
  if (!options_.deadlines) {
    r.primary = fvdf_key(r.gamma, c.priority);
    return r;
  }
  bool uncompressed = false;  // r.gamma already is the no-compression Gamma
  if (c.slo == fabric::SloClass::kDegraded) {
    // Admission degraded this coflow for its lifetime: compression never
    // re-enables, so rank it by its uncompressed Gamma.
    r.degrade = true;
    if (has_beta) r.gamma = gamma_nc();
    uncompressed = true;
  }
  // Fault fallback (seen_degraded_): deadline machinery is
  // counterproductive on a fault-prone fabric — pacing stretches feasible
  // coflows across slack the next fault erases, EDF lets an early-deadline
  // elephant starve cheaper deadlines SJF would meet, and band-3 parking
  // starves transiently infeasible coflows blind FVDF happily finishes.
  // Admission, expiry shedding and re-pricing stay active and only remove
  // already-missed volume FVDF would keep transmitting.
  if (!seen_degraded_ && c.has_deadline() && now < c.deadline) {
    const common::Seconds slack = c.deadline - now;
    if (r.gamma <= slack) {
      r.band = 1;
    } else if (!uncompressed && has_beta) {
      // Degrade before deferring: the compressed estimate misses the
      // deadline (the CPU bill or a throttled compressor is too slow), but
      // shipping raw still fits.
      const common::Seconds gnc = gamma_nc();
      if (gnc <= slack) {
        r.gamma = gnc;
        r.degrade = true;
        r.band = 1;
      } else {
        r.band = 3;
      }
    } else {
      r.band = 3;
    }
    r.primary = c.deadline;  // EDF within bands 1 and 3
    // Band 1 flips to 3 when the shrinking slack crosses Gamma; band 3
    // flips to 2 at expiry. Both instants re-derive from classify at
    // refresh time, so a conservative (early) horizon is always safe.
    r.horizon = r.band == 1 ? c.deadline - r.gamma : c.deadline;
    return r;
  }
  // Best-effort, expired deadline, or fault fallback: plain FVDF order,
  // with the starvation promotion ahead of the deadline band once the
  // priority class says the coflow has waited long enough.
  r.band = starved(c) ? 0 : kFvdfBand;
  r.primary = fvdf_key(r.gamma, c.priority);
  return r;
}

fabric::Allocation FvdfScheduler::schedule(const sched::SchedContext& ctx) {
  ++round_;
  const std::uint64_t prev = round_ - 1;
  if (options_.deadlines && !seen_degraded_ && ctx.fabric->degraded()) {
    seen_degraded_ = true;
    // Entering fault fallback reclassifies every coflow, not just the ones
    // the capacity change dirtied: force the incremental path through its
    // session rebuild so no cached band survives the regime switch.
    dirty_walk_.reset();
  }

  // Pseudocode 3's Upgrade targets "coflows waiting for scheduling": age
  // only coflows that got no service out of the previous decision, at
  // coflow arrival/completion events. Served coflows keep their class, so
  // the Shortest-Gamma order is preserved while blocked coflows rise. The
  // bump is reported to the dirty tracker as key-only: Γ_C stands, only the
  // rank key (Γ / priority) moves.
  if (options_.upgrade && ctx.coflow_event) {
    for (fabric::Coflow* c : ctx.coflows) {
      if (stamp_of(seen_round_, c->id) != prev ||
          stamp_of(served_round_, c->id) == prev)
        continue;
      if (c->priority < 1.0) c->priority = 1.0;
      c->priority *= kPriorityLogBase;
      if (ctx.tracker != nullptr) ctx.tracker->priority_changed(c->id);
      if (ctx.sink != nullptr) {
        obs::emit_instant(ctx.sink, obs::sim_ts(ctx.now), "priority_upgrade",
                          "fvdf",
                          obs::Args()
                              .add("coflow", std::int64_t(c->id))
                              .add("priority", c->priority)
                              .str());
        ctx.sink->registry().counter("fvdf.priority_upgrades").add();
      }
    }
  }

  const bool incremental = ctx.tracker != nullptr;
  fabric::Allocation alloc;
  {
    obs::ProfileScope scope(ctx.sink, "fvdf.allocate");
    alloc = incremental ? schedule_incremental(ctx) : schedule_full(ctx);
  }

  // A coflow is served when any of its flows got a rate or a beta switch.
  // The incremental walk stamps the coflows it granted bandwidth; the
  // compressing ones are read off the cached has_beta flag.
  for (const fabric::Coflow* c : ctx.coflows) {
    set_stamp(seen_round_, c->id, round_);
    if (incremental && c->id < cache_.size() && cache_[c->id].has_beta)
      set_stamp(served_round_, c->id, round_);
  }
  if (!incremental)
    for (const fabric::Flow* f : ctx.flows)
      if (alloc.rate(f->id) > 0 || alloc.compress(f->id))
        set_stamp(served_round_, f->coflow, round_);
  return alloc;
}

fabric::Allocation FvdfScheduler::schedule_full(
    const sched::SchedContext& ctx) {
  // Rejected coflows carry no unfinished flows, so time_calculation already
  // leaves them out.
  std::vector<CoflowEstimate> estimates = time_calculation(
      ctx, options_.compression, options_.force_compression);
  if (options_.deadlines) {
    any_deadline_ = std::any_of(
        ctx.coflows.begin(), ctx.coflows.end(),
        [this](const fabric::Coflow* c) { return counts_deadline(*c); });
    EvalEnv nc_env = eval_env(ctx);
    nc_env.codec = nullptr;
    for (CoflowEstimate& est : estimates) {
      const bool has_beta =
          std::find(est.beta.begin(), est.beta.end(), true) != est.beta.end();
      auto gamma_nc = [&est, &nc_env]() {
        common::Seconds g = 0;
        for (const fabric::Flow* f : est.flows)
          g = std::max(g, evaluate_flow(nc_env, *f, false).fct);
        return g;
      };
      const fabric::Coflow& c = *est.coflow;
      const SloRank rank = classify(c, est.gamma, has_beta, ctx.now, gamma_nc);
      if (rank.degrade) std::fill(est.beta.begin(), est.beta.end(), false);
      est.gamma = rank.gamma;
      est.key = {rank.primary, c.arrival, c.id, rank.band};
      // Feasible deadline coflows (band 1) are paced, Varys-style: dispose
      // over the remaining slack (less one slice of safety margin) instead
      // of over Gamma, so a deadline coflow takes only the rate it needs
      // and the freed capacity serves later-deadline and best-effort work.
      // The max with Gamma keeps the ASAP floor once the slack tightens.
      est.dispose = std::max(rank.gamma, ctx.slice);
      if (rank.band == 1)
        est.dispose =
            std::max(est.dispose, c.deadline - ctx.now - ctx.slice);
    }
  }
  return fvdf_allocate(ctx, std::move(estimates), options_.backfill);
}

fabric::Allocation FvdfScheduler::schedule_incremental(
    const sched::SchedContext& ctx) {
  const sched::DirtyTracker& tracker = *ctx.tracker;
  EvalEnv env = eval_env(ctx);
  if (!options_.compression) env.codec = nullptr;
  EvalEnv nc_env = env;
  nc_env.codec = nullptr;

  any_deadline_ = deadline_resident_ > 0;
  dirty_walk_.run(
      *ctx.tracker, ctx.coflows,
      [&] {
        // First sight of this run (or a restarted one, or fault fallback
        // just began): rebuild from scratch.
        xmit_index_.clear();
        cache_.clear();
        beta_.assign(tracker.flow_count(), 0);
        horizon_heap_ = {};
        horizon_round_.clear();
        // Pre-register the deadline residents so the refreshes that follow
        // classify against the final any_deadline_ value, whatever the
        // coflow order; the rebuild then classifies coherently, with no
        // global re-key.
        deadline_resident_ = 0;
        for (const fabric::Coflow* c : ctx.coflows) {
          if (!counts_deadline(*c)) continue;
          if (c->id >= cache_.size()) cache_.resize(c->id + 1);
          cache_[c->id].counted = true;
          ++deadline_resident_;
        }
        any_deadline_ = deadline_resident_ > 0;
        need_global_rekey_ = false;
      },
      [&](const fabric::Coflow& c, sched::DirtyLevel level) {
        if (c.completed() || c.slo == fabric::SloClass::kRejected)
          drop_coflow(c.id);
        else if (level == sched::DirtyLevel::kKeyOnly &&
                 c.id < cache_.size() && cache_[c.id].valid)
          rekey_coflow(c);
        else
          refresh_coflow(ctx, env, nc_env, c);
      });

  // Time-driven reclassifications: pop every horizon within one slice of
  // now (the pad absorbs FP drift in the stored horizon; classify is the
  // authority) and refresh, unless this round already refreshed the coflow.
  horizon_due_.clear();
  const common::Seconds due = ctx.now + ctx.slice;
  while (!horizon_heap_.empty() && horizon_heap_.top().first <= due) {
    const fabric::CoflowId id = horizon_heap_.top().second;
    horizon_heap_.pop();
    if (id >= cache_.size() || !cache_[id].valid) continue;
    if (stamp_of(horizon_round_, id) == round_) continue;
    set_stamp(horizon_round_, id, round_);
    horizon_due_.push_back(id);
  }
  for (const fabric::CoflowId id : horizon_due_) {
    const fabric::Coflow* c = tracker.coflow(id);
    if (c == nullptr || c->completed() ||
        c->slo == fabric::SloClass::kRejected) {
      drop_coflow(id);
      continue;
    }
    refresh_coflow(ctx, env, nc_env, *c);
  }

  if (need_global_rekey_) {
    for (fabric::CoflowId id = 0; id < cache_.size(); ++id)
      if (const fabric::Coflow* c = tracker.coflow(id)) rekey_coflow(*c);
    need_global_rekey_ = false;
  }

  // Volume disposal (Pseudocode 2 lines 24-35) over the memoized lanes, in
  // rank-index order — the same unique (band, key, arrival, id) sequence
  // the full path's stable_sort produces. The beta switches install in one
  // bulk copy (the full path's set_compress(id, true) per compressing flow
  // writes the same table entries), and the rate walk runs over the
  // transmitting-only index and stops at port exhaustion: beta lanes never
  // touch headroom, and once every ingress (or every egress) port is
  // drained all remaining grants are exactly zero — the same rates an
  // unset flow reports. The walk lays the transmitting lanes it visits out
  // in walk_, in walk order, so backfill replays one flat array.
  fabric::Allocation alloc;
  alloc.reserve(tracker.flow_count());
  alloc.set_compress_all(beta_);
  fabric::PortHeadroom headroom(*ctx.fabric);
  walk_.clear();
  xmit_index_.for_each_while([&](fabric::CoflowId id) {
    const CachedCoflow& cc = cache_[id];
    // Band 1 is deadline-paced: the disposal horizon depends on `now`, so
    // its want is computed live at walk time (the full path's expression —
    // cached wants would go stale between refreshes). Other bands replay
    // the memoized Gamma-paced wants.
    const bool paced = cc.band == 1;
    common::Seconds dispose = 0;
    if (paced)
      dispose = std::max(std::max(cc.gamma, ctx.slice),
                         tracker.coflow(id)->deadline - ctx.now - ctx.slice);
    for (const Lane& l : cc.lanes) {
      if (l.beta) continue;
      walk_.push_back(WalkLane{l.id, l.src, l.dst, id});
      const common::Bps want =
          paced ? tracker.flow(l.id).volume() / dispose : l.want;
      const common::Bps r = std::min(want, headroom.available(l.src, l.dst));
      if (r > 0) {
        alloc.set_rate(l.id, r);
        headroom.consume(l.src, l.dst, r);
        set_stamp(served_round_, id, round_);
      }
    }
    return !headroom.exhausted();
  });
  if (options_.backfill && !headroom.exhausted()) {
    for (const WalkLane& w : walk_) {
      const common::Bps extra = headroom.available(w.src, w.dst);
      if (extra <= 0) continue;
      alloc.set_rate(w.id, alloc.rate(w.id) + extra);
      headroom.consume(w.src, w.dst, extra);
      set_stamp(served_round_, w.coflow, round_);
      if (headroom.exhausted()) break;
    }
  }
  return alloc;
}

void FvdfScheduler::refresh_coflow(const sched::SchedContext& ctx,
                                   const EvalEnv& env, const EvalEnv& nc_env,
                                   const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  CachedCoflow& cc = cache_[c.id];
  // Un-publish the old lanes' beta switches before rebuilding: a flow that
  // finished or flipped back to transmitting must not leak a stale flag
  // into the bulk compression table.
  for (const Lane& l : cc.lanes)
    if (l.beta) beta_[l.id] = 0;
  cc.valid = true;
  cc.arrival = c.arrival;
  cc.gamma = 0;
  cc.has_xmit = false;
  cc.has_beta = false;
  cc.lanes.clear();
  if (!cc.counted && counts_deadline(c)) {
    cc.counted = true;
    if (++deadline_resident_ == 1) need_global_rekey_ = true;
    any_deadline_ = true;
  }
  set_stamp(horizon_round_, c.id, round_);

  const sched::DirtyTracker& tracker = *ctx.tracker;
  common::Seconds gamma_beta = 0;
  bool has_beta = false;
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow& f = tracker.flow(fid);
    if (f.done()) continue;
    const FlowEval ev = evaluate_flow(env, f, options_.force_compression);
    gamma_beta = std::max(gamma_beta, ev.fct);  // Eq. 8
    if (ctx.sink != nullptr) [[unlikely]]
      emit_beta_decision(ctx, f, ev.beta, ev.fct);
    cc.lanes.push_back(Lane{fid, f.src, f.dst, ev.beta, 0.0});
    has_beta |= ev.beta;
  }
  if (cc.lanes.empty()) {
    xmit_index_.erase(c.id);
    return;
  }
  // Same flow order as the full path's est.flows (c.flows, done-skipped),
  // so Gamma_nc folds to the same bits on both paths.
  auto gamma_nc = [&c, &tracker, &nc_env]() {
    common::Seconds g = 0;
    for (const fabric::FlowId fid : c.flows) {
      const fabric::Flow& f = tracker.flow(fid);
      if (f.done()) continue;
      g = std::max(g, evaluate_flow(nc_env, f, false).fct);
    }
    return g;
  };
  const SloRank rank = classify(c, gamma_beta, has_beta, ctx.now, gamma_nc);
  cc.gamma = rank.gamma;
  cc.band = rank.band;
  for (Lane& l : cc.lanes) {
    if (rank.degrade) l.beta = false;
    if (l.beta) {
      if (l.id >= beta_.size()) beta_.resize(l.id + 1, 0);
      beta_[l.id] = 1;
      cc.has_beta = true;
    } else {
      cc.has_xmit = true;
    }
  }
  const common::Seconds g = std::max(cc.gamma, ctx.slice);
  for (Lane& l : cc.lanes)
    if (!l.beta) l.want = tracker.flow(l.id).volume() / g;
  const double key = rekey_coflow(c);
  if (ctx.sink != nullptr) [[unlikely]]
    emit_coflow_estimate(ctx, c, cc.gamma, key);
  if (rank.horizon < fabric::kNoDeadline)
    horizon_heap_.push({rank.horizon, c.id});
}

double FvdfScheduler::rekey_coflow(const fabric::Coflow& c) {
  CachedCoflow& cc = cache_[c.id];
  if (!cc.valid || cc.lanes.empty()) return 0;
  double primary = c.deadline;  // EDF within bands 1 and 3
  if (cc.band == 0 || cc.band == kFvdfBand) {
    cc.band = starved(c) ? 0 : kFvdfBand;
    primary = fvdf_key(cc.gamma, c.priority);
  }
  if (cc.has_xmit)
    xmit_index_.insert_or_update(c.id, {primary, cc.arrival, c.id, cc.band});
  else
    xmit_index_.erase(c.id);
  return primary;
}

void FvdfScheduler::drop_coflow(fabric::CoflowId id) {
  xmit_index_.erase(id);
  if (id >= cache_.size()) return;
  CachedCoflow& cc = cache_[id];
  for (const Lane& l : cc.lanes)
    if (l.beta) beta_[l.id] = 0;
  if (cc.counted) {
    cc.counted = false;
    if (--deadline_resident_ == 0) need_global_rekey_ = true;
    any_deadline_ = deadline_resident_ > 0;
  }
  cc.valid = false;
  cc.has_xmit = false;
  cc.has_beta = false;
  cc.lanes = {};  // free, not just clear: completed coflows linger
  cc.gamma = 0;
}

std::unique_ptr<sched::Scheduler> make_fvdf(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  FvdfOptions options;
  if (key == "FVDF-NC") {
    options.compression = false;
  } else if (key == "FVDF-NOUPGRADE") {
    options.upgrade = false;
  } else if (key == "FVDF-NOBACKFILL") {
    options.backfill = false;
  } else if (key == "FVDF-BLIND") {
    options.force_compression = true;
  } else if (key == "DEADLINE-FVDF" || key == "DFVDF") {
    options.deadlines = true;
  } else if (key != "FVDF") {
    throw std::out_of_range("make_fvdf: unknown variant " + name +
                            " (known: " + sched::known_scheduler_list() + ")");
  }
  return std::make_unique<FvdfScheduler>(options);
}

void FvdfScheduler::save_state(recovery::StateWriter& w) const {
  w.u64(round_);
  w.u64(seen_round_.size());
  for (const std::uint64_t s : seen_round_) w.u64(s);
  w.u64(served_round_.size());
  for (const std::uint64_t s : served_round_) w.u64(s);
  w.u64(seen_degraded_ ? 1 : 0);
}

void FvdfScheduler::restore_state(recovery::StateReader& r) {
  round_ = r.u64();
  seen_round_.resize(r.count("fvdf seen stamps"));
  for (std::uint64_t& s : seen_round_) s = r.u64();
  served_round_.resize(r.count("fvdf served stamps"));
  for (std::uint64_t& s : served_round_) s = r.u64();
  seen_degraded_ = r.u64() != 0;
  // Drop the live incremental binding: the next incremental round rebuilds
  // every session-keyed cache from scratch, even if a stale session id were
  // ever reused.
  dirty_walk_.reset();
}

}  // namespace swallow::core
