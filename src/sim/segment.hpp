// Segment formulas of the simulation engine (DESIGN.md section 10).
//
// Internal to sim/engine.cpp; a header only so the event search can be
// tested against the exhaustive per-flow search. Between two consecutive
// fold points (schedule round, CPU-headroom re-evaluation) every rate, beta
// and capacity is constant, so a flow's pools after j whole slices are a
// pure function of its segment snapshot and j. Both engine modes evaluate
// exactly these formulas at exactly the same boundaries; the event-driven
// mode merely skips the interior boundaries where nothing can happen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fabric/coflow.hpp"

namespace swallow::sim::segment {

inline constexpr double kTiny = 1e-12;
inline constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
/// Where the event searches saturate: a predicate that never holds below
/// 2^62 reports kCap, which callers treat as "no event".
inline constexpr std::uint64_t kCap = std::uint64_t{1} << 62;

/// Per-flow snapshot taken at a segment boundary. Only moving flows are
/// cut: an idle flow (no rate, or a compression switch without CPU) keeps
/// its pools, so its entry stays stale (epoch != the segment's) and reads
/// fall through to the flow itself.
struct FlowSeg {
  enum Mode : std::uint8_t { kIdle = 0, kTransmit = 1, kCompress = 2 };
  double d0 = 0;      ///< raw_remaining at segment start
  double D0 = 0;      ///< compressed_pending at segment start
  double sent0 = 0;   ///< sent at segment start
  double sentc0 = 0;  ///< sent_compressed at segment start
  double step = 0;    ///< bytes disposed per whole slice
  double rate = 0;    ///< transmit rate r, or effective compression speed
  double ratio = 0;   ///< effective compression ratio (compress mode)
  std::uint64_t epoch = 0;  ///< valid iff == current segment epoch
  Mode mode = kIdle;
};

/// Smallest j >= 1 with pred(j), for a monotone predicate (geometric
/// expansion then binary search). Saturates at kCap when pred never holds
/// in range.
template <typename Pred>
std::uint64_t first_true(Pred&& pred) {
  std::uint64_t lo = 1, hi = 1;
  while (!pred(hi)) {
    lo = hi + 1;
    if (hi >= kCap) return kCap;
    hi *= 2;
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) hi = mid;
    else lo = mid + 1;
  }
  return lo;
}

/// first_true seeded with an algebraic estimate of the boundary. The
/// estimate only has to be within a few ulps of rounding error — the local
/// walk lands on the exact same minimal j the blind search would find (the
/// minimum of a monotone predicate is unique), it just skips the ~60
/// predicate evaluations of the geometric expansion. Falls back to the
/// blind search when the guess is far off (degenerate inputs).
template <typename Pred>
std::uint64_t first_true_near(double guess, Pred&& pred) {
  if (!(guess >= 1)) guess = 1;
  if (guess >= 9.2e18) return first_true(pred);
  std::uint64_t j = static_cast<std::uint64_t>(guess);
  if (j < 1) j = 1;
  if (j > kCap) j = kCap;
  for (int i = 0; i < 8; ++i) {
    if (pred(j)) {
      if (j == 1 || !pred(j - 1)) return j;
      --j;
    } else {
      if (j >= kCap) return kCap;
      ++j;
      if (pred(j)) return j;
    }
  }
  return first_true(pred);
}

/// Canonical per-segment flow evolution (shared by both engine modes).
/// Transmit drains compressed-then-raw at `step` bytes per slice:
///   w(j)  = min(d0 + D0, j * step)           cumulative wire bytes
///   wc(j) = min(D0, w(j))                    ... of which compressed
///   d(j)  = d0 - min(d0, max(0, w(j) - D0))
/// Compression converts raw at `step` bytes per slice:
///   cc(j) = min(d0, j * step)                cumulative raw consumed
///   d(j)  = d0 - cc(j),  D(j) = D0 + cc(j) * ratio
/// All monotone in j, so event detection is a monotone-predicate search.
inline void materialize_flow(fabric::Flow& f, const FlowSeg& s,
                             std::uint64_t j) {
  if (s.mode == FlowSeg::kTransmit) {
    const double w = std::min(s.d0 + s.D0, static_cast<double>(j) * s.step);
    const double wc = std::min(s.D0, w);
    f.raw_remaining = s.d0 - std::min(s.d0, std::max(0.0, w - s.D0));
    f.compressed_pending = s.D0 - wc;
    f.sent = s.sent0 + w;
    f.sent_compressed = s.sentc0 + wc;
  } else if (s.mode == FlowSeg::kCompress) {
    const double cc = std::min(s.d0, static_cast<double>(j) * s.step);
    f.raw_remaining = s.d0 - cc;
    f.compressed_pending = s.D0 + cc * s.ratio;
  }
  // kIdle entries are never current: idle flows do not move.
}

/// A transmitting flow's event predicate: slice j is its last (the volume
/// left at the slice's start fits in one slice) or leaves at most epsilon.
struct TransmitEvent {
  double V0;    ///< d0 + D0
  double step;
  bool operator()(std::uint64_t j) const {
    const double v_prev = V0 - std::min(V0, static_cast<double>(j - 1) * step);
    const double v_now = V0 - std::min(V0, static_cast<double>(j) * step);
    return v_prev <= step + kTiny || v_now <= fabric::kVolumeEpsilon;
  }
  double guess() const { return V0 / step; }
};

/// A compressing flow's event predicate: slice j exhausts the raw pool.
struct CompressEvent {
  double d0;
  double step;
  bool operator()(std::uint64_t j) const {
    return d0 - std::min(d0, static_cast<double>(j) * step) <=
           fabric::kVolumeEpsilon;
  }
  double guess() const { return (d0 - fabric::kVolumeEpsilon) / step + 1.0; }
};

/// The earliest flow event of a segment and the flows tied at it, in the
/// order they were offered.
///
/// Bounded search: every event predicate is monotone in j (each term is a
/// composition of monotone roundings), so one evaluation at the current
/// minimum m decides whether a flow can matter. pred(m) false proves the
/// flow's first event lies strictly past m: it can neither lower nor tie
/// the minimum, and the exact search is skipped. The proof uses the very
/// predicate the exact search evaluates, so it holds bit for bit for any
/// step (also just above kTiny) and any volume (also at or below
/// epsilon). A saturated minimum (kCap) prunes nothing: a flow whose
/// predicate never holds also reports kCap and ties it.
class EventMin {
 public:
  void reset() {
    min_ = kNoEvent;
    ties_.clear();
  }
  template <typename Event>
  void offer(fabric::FlowId id, const Event& ev) {
    if (min_ < kCap && !ev(min_)) return;
    const std::uint64_t j = first_true_near(ev.guess(), ev);
    if (j < min_) {
      min_ = j;
      ties_.clear();
    }
    if (j == min_) ties_.push_back(id);
  }
  std::uint64_t min() const { return min_; }
  const std::vector<fabric::FlowId>& ties() const { return ties_; }

 private:
  std::uint64_t min_ = kNoEvent;
  std::vector<fabric::FlowId> ties_;
};

}  // namespace swallow::sim::segment
