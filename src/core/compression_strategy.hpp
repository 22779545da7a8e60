// Pseudocode 1 of the paper: the per-flow compression gate.
//
// beta = 1 iff
//   (1) the flow's payload is compressible at all,
//   (2) there is still raw (uncompressed) volume to work on,
//   (3) the sender's CPU has headroom for the compressor, and
//   (4) Eq. (3) holds: R_eff * (1 - xi) > B, i.e. a compression slice
//       disposes more volume than a transmission slice would.
#pragma once

#include "codec/codec_model.hpp"
#include "cpu/cpu_model.hpp"
#include "fabric/coflow.hpp"
#include "fabric/fabric.hpp"

namespace swallow::core {

struct CompressionDecision {
  bool enabled = false;       ///< the paper's beta
  double cpu_headroom = 0.0;  ///< sender headroom used for R_eff
  common::Bps bandwidth = 0;  ///< the B used in the Eq. (3) comparison
};

/// The flow's B: min of its sender ingress and receiver egress capacity
/// (paper Eq. 2 uses the min of the two port bandwidths).
common::Bps flow_bottleneck(const fabric::Flow& flow,
                            const fabric::Fabric& fabric);

/// The gate on the sender's CPU state as read at the decision point:
/// `cpu_headroom` and `cpu_can_compress` are headroom(src, now) and
/// can_compress(src, now), normally from the round's cpu::CpuSample.
CompressionDecision compression_strategy(const fabric::Flow& flow,
                                         const codec::CodecModel& codec,
                                         double cpu_headroom,
                                         bool cpu_can_compress,
                                         const fabric::Fabric& fabric);

/// The same gate, reading the sender's CPU state from `cpu` at `now`.
inline CompressionDecision compression_strategy(const fabric::Flow& flow,
                                                const codec::CodecModel& codec,
                                                const cpu::CpuProvider& cpu,
                                                const fabric::Fabric& fabric,
                                                common::Seconds now) {
  return compression_strategy(flow, codec, cpu.headroom(flow.src, now),
                              cpu.can_compress(flow.src, now), fabric);
}

}  // namespace swallow::core
