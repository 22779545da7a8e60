#include "sched/sebf.hpp"

#include <algorithm>
#include <unordered_map>

namespace swallow::sched {

namespace {

// Effective bottleneck over remaining volumes, against *current* port
// capacities. Zero-capacity ports carry no usable load (stalled flows are
// filtered by both callers), so the division is safe to skip. Shared,
// out-of-line: the full and incremental paths must run the *same*
// instantiation so FP contraction cannot differ between them — the
// byte-identity contract of the incremental scheduler depends on it.
[[gnu::noinline]] common::Seconds coflow_bottleneck_time(
    const std::vector<const fabric::Flow*>& flows,
    const fabric::Fabric& fabric, std::vector<common::Bytes>& in_load,
    std::vector<common::Bytes>& out_load) {
  std::fill(in_load.begin(), in_load.end(), 0.0);
  std::fill(out_load.begin(), out_load.end(), 0.0);
  for (const fabric::Flow* f : flows) {
    in_load[f->src] += f->volume();
    out_load[f->dst] += f->volume();
  }
  common::Seconds gamma = 0;
  for (fabric::PortId p = 0; p < fabric.num_ports(); ++p) {
    const common::Bps in_cap = fabric.ingress_capacity(p);
    const common::Bps out_cap = fabric.egress_capacity(p);
    if (in_cap > 0) gamma = std::max(gamma, in_load[p] / in_cap);
    if (out_cap > 0) gamma = std::max(gamma, out_load[p] / out_cap);
  }
  return gamma;
}

}  // namespace

fabric::Allocation SebfScheduler::schedule(const SchedContext& ctx) {
  if (ctx.tracker != nullptr) return schedule_incremental(ctx);
  return schedule_full(ctx);
}

fabric::Allocation SebfScheduler::schedule_full(const SchedContext& ctx) {
  struct Entry {
    fabric::Coflow* coflow = nullptr;
    std::vector<const fabric::Flow*> flows;
    common::Seconds gamma = 0;
  };

  // Stalled flows (failed src/dst link) take no allocation and contribute
  // no gamma: MADD over the reachable flows keeps the coflow progressing
  // while the dead port's share waits for recovery.
  const std::vector<const fabric::Flow*>& usable = transmittable_flows(ctx);

  // One pass over the flows instead of a per-coflow rescan (the old
  // coflows x flows nested loop dominated wide traces).
  std::vector<Entry> entries;
  entries.reserve(ctx.coflows.size());
  std::unordered_map<fabric::CoflowId, std::size_t> entry_of;
  entry_of.reserve(ctx.coflows.size());
  for (fabric::Coflow* c : ctx.coflows) {
    entry_of.emplace(c->id, entries.size());
    Entry e;
    e.coflow = c;
    entries.push_back(std::move(e));
  }
  for (const fabric::Flow* f : usable) {
    if (f->done()) continue;
    const auto it = entry_of.find(f->coflow);
    if (it != entry_of.end()) entries[it->second].flows.push_back(f);
  }
  entries.erase(std::remove_if(
                    entries.begin(), entries.end(),
                    [](const Entry& e) { return e.flows.empty(); }),
                entries.end());

  // Per-port scratch reused across entries.
  std::vector<common::Bytes> in_load(ctx.fabric->num_ports(), 0.0);
  std::vector<common::Bytes> out_load(ctx.fabric->num_ports(), 0.0);
  for (Entry& e : entries)
    e.gamma = coflow_bottleneck_time(e.flows, *ctx.fabric, in_load, out_load);

  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.gamma != b.gamma) return a.gamma < b.gamma;
                     if (a.coflow->arrival != b.coflow->arrival)
                       return a.coflow->arrival < b.coflow->arrival;
                     return a.coflow->id < b.coflow->id;
                   });

  fabric::Allocation alloc;
  fabric::PortHeadroom headroom(*ctx.fabric);
  for (const Entry& e : entries)
    if (e.gamma > 0) fabric::madd_into(alloc, e.flows, e.gamma, headroom);
  if (backfill_)
    for (const Entry& e : entries)
      fabric::backfill_into(alloc, e.flows, headroom);
  return alloc;
}

fabric::Allocation SebfScheduler::schedule_incremental(
    const SchedContext& ctx) {
  const DirtyTracker& tracker = *ctx.tracker;
  if (in_load_.size() != ctx.fabric->num_ports()) {
    in_load_.assign(ctx.fabric->num_ports(), 0.0);
    out_load_.assign(ctx.fabric->num_ports(), 0.0);
  }

  // SEBF has no priority class, so key-only dirt (priority upgrades from a
  // shared engine feed) still just re-derives Gamma — recomputing a clean
  // coflow is bit-exact, only slightly wasteful. A completed or shed coflow
  // has no unfinished flow left, so its refresh drops it.
  walk_.run(
      *ctx.tracker, ctx.coflows,
      [&] {
        index_.clear();
        cache_.clear();
      },
      [&](const fabric::Coflow& c, DirtyLevel) { refresh_coflow(ctx, c); });

  fabric::Allocation alloc;
  alloc.reserve(tracker.flow_count());
  fabric::PortHeadroom headroom(*ctx.fabric);
  // The full path keeps gamma == 0 entries (a coflow whose live ports all
  // browned out to capacity 0): they sort first, take no MADD rates, but do
  // participate in backfill. The index mirrors that exactly. Both walks
  // stop at port exhaustion — every grant past that point is exactly zero
  // (madd_into/backfill_into break out the same way on the full path).
  index_.for_each_while([&](fabric::CoflowId id) {
    const Cached& cc = cache_[id];
    if (cc.gamma > 0) fabric::madd_into(alloc, cc.flows, cc.gamma, headroom);
    return !headroom.exhausted();
  });
  if (backfill_ && !headroom.exhausted())
    index_.for_each_while([&](fabric::CoflowId id) {
      fabric::backfill_into(alloc, cache_[id].flows, headroom);
      return !headroom.exhausted();
    });
  return alloc;
}

void SebfScheduler::refresh_coflow(const SchedContext& ctx,
                                   const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  Cached& cc = cache_[c.id];
  cc.flows.clear();
  const DirtyTracker& tracker = *ctx.tracker;
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow& f = tracker.flow(fid);
    if (f.done() || link_stalled(f, *ctx.fabric)) continue;
    cc.flows.push_back(&f);
  }
  if (cc.flows.empty()) {
    cc = Cached{};  // free, not just clear: completed coflows linger
    index_.erase(c.id);
    return;
  }
  cc.gamma = coflow_bottleneck_time(cc.flows, *ctx.fabric, in_load_, out_load_);
  index_.insert_or_update(c.id, CoflowRankKey{cc.gamma, c.arrival, c.id});
}

}  // namespace swallow::sched
