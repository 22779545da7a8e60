#include "sched/aalo.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace swallow::sched {

AaloScheduler::AaloScheduler() : AaloScheduler(Config{}) {}

AaloScheduler::AaloScheduler(Config config) : config_(config) {
  if (config_.first_threshold <= 0 || config_.threshold_factor <= 1.0 ||
      config_.num_queues == 0)
    throw std::invalid_argument("AaloScheduler: bad queue configuration");
}

std::size_t AaloScheduler::queue_of(common::Bytes sent) const {
  common::Bytes threshold = config_.first_threshold;
  for (std::size_t q = 0; q + 1 < config_.num_queues; ++q) {
    if (sent < threshold) return q;
    threshold *= config_.threshold_factor;
  }
  return config_.num_queues - 1;
}

fabric::Allocation AaloScheduler::schedule(const SchedContext& ctx) {
  if (ctx.tracker != nullptr) return schedule_incremental(ctx);
  return schedule_full(ctx);
}

fabric::Allocation AaloScheduler::schedule_full(const SchedContext& ctx) {
  // Attained service per coflow: bytes already on the wire.
  std::unordered_map<fabric::CoflowId, common::Bytes> sent;
  sent.reserve(ctx.coflows.size());
  for (const fabric::Flow* f : ctx.flows) sent[f->coflow] += f->sent;

  // Order coflows by (queue, arrival, id): strict priority across queues,
  // FIFO within a queue.
  std::vector<fabric::Coflow*> order = ctx.coflows;
  std::stable_sort(
      order.begin(), order.end(),
      [&](const fabric::Coflow* a, const fabric::Coflow* b) {
        const std::size_t qa = queue_of(sent[a->id]);
        const std::size_t qb = queue_of(sent[b->id]);
        if (qa != qb) return qa < qb;
        if (a->arrival != b->arrival) return a->arrival < b->arrival;
        return a->id < b->id;
      });

  std::vector<fabric::CoflowId> ids;
  ids.reserve(order.size());
  for (const fabric::Coflow* c : order) ids.push_back(c->id);
  return fabric::strict_priority(order_flows_by_coflow(ctx, ids),
                                 *ctx.fabric);
}

fabric::Allocation AaloScheduler::schedule_incremental(
    const SchedContext& ctx) {
  const DirtyTracker& tracker = *ctx.tracker;
  // Aalo has no priority class, so any dirt — including key-only marks from
  // a shared engine feed — just re-derives the queue level. A completed or
  // shed coflow has no unfinished flow left, so its refresh drops it.
  walk_.run(
      *ctx.tracker, ctx.coflows,
      [&] {
        index_.clear();
        cache_.clear();
      },
      [&](const fabric::Coflow& c, DirtyLevel) { refresh_coflow(ctx, c); });

  // Concatenating the cached flow lists in index order reproduces the full
  // path's order_flows_by_coflow sequence: coflows by (queue, arrival, id),
  // flows within a coflow by ascending flow id.
  ordered_.clear();
  ordered_.reserve(tracker.flow_count());
  index_.for_each([&](fabric::CoflowId id) {
    const Cached& cc = cache_[id];
    ordered_.insert(ordered_.end(), cc.flows.begin(), cc.flows.end());
  });
  return fabric::strict_priority(ordered_, *ctx.fabric);
}

void AaloScheduler::refresh_coflow(const SchedContext& ctx,
                                   const fabric::Coflow& c) {
  if (c.id >= cache_.size()) cache_.resize(c.id + 1);
  Cached& cc = cache_[c.id];
  cc.flows.clear();
  const DirtyTracker& tracker = *ctx.tracker;
  // Attained service sums over every unfinished flow — stalled ones
  // included, exactly like the full path's pass over ctx.flows — while the
  // output flow list additionally filters stalled flows, matching
  // transmittable_flows.
  common::Bytes sent = 0;
  for (const fabric::FlowId fid : c.flows) {
    const fabric::Flow& f = tracker.flow(fid);
    if (f.done()) continue;
    sent += f.sent;
    if (!link_stalled(f, *ctx.fabric)) cc.flows.push_back(&f);
  }
  if (cc.flows.empty()) {
    cc = Cached{};  // free, not just clear: completed coflows linger
    index_.erase(c.id);
    return;
  }
  // Queue levels are small integers: exact as doubles, so the shared rank
  // key compares them precisely.
  index_.insert_or_update(
      c.id, CoflowRankKey{static_cast<double>(queue_of(sent)), c.arrival,
                          c.id});
}

}  // namespace swallow::sched
