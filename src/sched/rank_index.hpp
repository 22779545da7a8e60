// Addressable ordered index over coflows: the "indexed priority structure"
// of the incremental scheduling core (DESIGN.md section 11).
//
// Every ranking the schedulers use — FVDF's adjusted Γ_C (behind
// DEADLINE-FVDF's band), SEBF's effective bottleneck time, Aalo's queue
// level — reduces to the same strict total order: (band, primary key,
// arrival, coflow id). RankIndex keeps coflows sorted under that order in
// one flat array. Updates between walks are only recorded; the next walk
// first commits them as a batch (drop moved entries, sort the batch, merge
// it in), so a round that re-keys k of n coflows costs one O(n) sequential
// pass plus O(k log k), with no per-node allocation. A full sort and an
// ordered walk of this index produce the *same sequence* (the id tiebreak
// makes the order unique), which is what lets the incremental paths
// reproduce the full-recompute allocations bit-for-bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fabric/coflow.hpp"

namespace swallow::sched {

/// The shared ranking key. `primary` compares exactly like the schedulers'
/// historical sort comparators: infinities tie (a down-link coflow ranks by
/// arrival among its peers), and the id tiebreak makes the order total.
/// `band` is compared first but declared last, so the three-field keys of
/// SEBF and AALO leave it at 0: DEADLINE-FVDF's feasibility band (0-3);
/// plain FVDF ranks every coflow in band 2.
struct CoflowRankKey {
  double primary = 0;  ///< adjusted Γ_C or deadline / SEBF Γ / Aalo level
  common::Seconds arrival = 0;
  fabric::CoflowId id = 0;
  std::uint8_t band = 0;

  bool operator<(const CoflowRankKey& o) const {
    if (band != o.band) return band < o.band;
    if (primary != o.primary) return primary < o.primary;
    if (arrival != o.arrival) return arrival < o.arrival;
    return id < o.id;
  }
};

/// Sorted flat array of (key, coflow id) with a dense per-coflow key
/// table. insert_or_update/erase are O(1): they record the new key (or the
/// removal) and mark the id changed. for_each/for_each_while commit the
/// changed batch before walking. Coflow ids must be dense (the engine's
/// are): the key table is indexed by id.
class RankIndex {
 public:
  bool contains(fabric::CoflowId id) const {
    return id < slots_.size() && slots_[id].present;
  }

  /// Inserts the coflow or moves it to its new rank (decrease/increase-key).
  /// A re-insert with an unchanged key is a no-op.
  void insert_or_update(fabric::CoflowId id, const CoflowRankKey& key) {
    if (id >= slots_.size()) slots_.resize(id + 1);
    Slot& s = slots_[id];
    if (s.present) {
      if (!(s.key < key) && !(key < s.key)) return;
    } else {
      s.present = true;
      ++size_;
    }
    s.key = key;
    mark_changed(id, s);
  }

  void erase(fabric::CoflowId id) {
    if (!contains(id)) return;
    Slot& s = slots_[id];
    s.present = false;
    --size_;
    mark_changed(id, s);
  }

  std::size_t size() const { return size_; }

  void clear() {
    order_.clear();
    slots_.clear();
    changed_.clear();
    size_ = 0;
  }

  /// Walks coflow ids in ascending key order — the admission order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    commit();
    for (const Entry& e : order_) fn(e.id);
  }

  /// Like for_each, but `fn` returns false to stop the walk. Greedy
  /// allocators break out the moment the fabric is exhausted instead of
  /// visiting every remaining coflow just to grant it zero.
  template <typename Fn>
  void for_each_while(Fn&& fn) {
    commit();
    for (const Entry& e : order_)
      if (!fn(e.id)) return;
  }

 private:
  struct Entry {
    CoflowRankKey key;
    fabric::CoflowId id;
    bool operator<(const Entry& o) const { return key < o.key; }
  };
  struct Slot {
    CoflowRankKey key;     ///< current key; meaningful iff present
    bool present = false;  ///< logically in the index
    bool changed = false;  ///< listed in changed_ since the last commit
  };

  void mark_changed(fabric::CoflowId id, Slot& s) {
    if (s.changed) return;
    s.changed = true;
    changed_.push_back(id);
  }

  /// Folds the recorded changes into order_: drops the entries of changed
  /// ids, then merges their current keys back in. A change that was undone
  /// before the commit (insert-then-erase, a key moved and moved back)
  /// still lands at its one correct position.
  void commit() {
    if (changed_.empty()) return;
    order_.erase(std::remove_if(order_.begin(), order_.end(),
                                [this](const Entry& e) {
                                  return slots_[e.id].changed;
                                }),
                 order_.end());
    batch_.clear();
    for (const fabric::CoflowId id : changed_) {
      Slot& s = slots_[id];
      s.changed = false;
      if (s.present) batch_.push_back({s.key, id});
    }
    changed_.clear();
    std::sort(batch_.begin(), batch_.end());
    // Backward merge into the tail of order_: no temporary buffer, and
    // only the entries past the first insertion point move.
    std::size_t i = order_.size();
    std::size_t j = batch_.size();
    order_.resize(i + j);
    std::size_t k = order_.size();
    while (j > 0) {
      if (i > 0 && batch_[j - 1] < order_[i - 1])
        order_[--k] = order_[--i];
      else
        order_[--k] = batch_[--j];
    }
  }

  std::vector<Entry> order_;  ///< committed entries, ascending key
  std::vector<Slot> slots_;   ///< by coflow id
  std::vector<fabric::CoflowId> changed_;  ///< ids touched since commit
  std::vector<Entry> batch_;  ///< the commit's sorted batch, reused
  std::size_t size_ = 0;
};

}  // namespace swallow::sched
