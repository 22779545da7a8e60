#include "core/compression_strategy.hpp"

#include <algorithm>

namespace swallow::core {

common::Bps flow_bottleneck(const fabric::Flow& flow,
                            const fabric::Fabric& fabric) {
  return std::min(fabric.ingress_capacity(flow.src),
                  fabric.egress_capacity(flow.dst));
}

CompressionDecision compression_strategy(const fabric::Flow& flow,
                                         const codec::CodecModel& codec,
                                         double cpu_headroom,
                                         bool cpu_can_compress,
                                         const fabric::Fabric& fabric) {
  CompressionDecision decision;
  decision.bandwidth = flow_bottleneck(flow, fabric);
  decision.cpu_headroom = cpu_headroom;
  if (!flow.compressible) return decision;
  if (flow.raw_remaining <= fabric::kVolumeEpsilon) return decision;
  if (!cpu_can_compress) return decision;
  // Eq. 3 with the flow's own ratio when the workload specifies one.
  const double ratio = flow.effective_ratio(codec.ratio);
  const double headroom = std::clamp(decision.cpu_headroom, 0.0, 1.0);
  decision.enabled =
      codec.compress_speed * headroom * (1.0 - ratio) > decision.bandwidth;
  return decision;
}

}  // namespace swallow::core
