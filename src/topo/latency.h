// Memory access latency model and the "NUMA factor" metric of Table I.
//
// The paper defines the NUMA factor as the ratio of remote to local access
// latency. We model an access from a CPU on node c to memory on node m as
//   local DRAM latency + routed link latency (both ways counted once: the
//   request/response round trip is folded into per-link latency_ns) +
//   a per-hop router/coherence overhead.
#pragma once

#include "topo/routing.h"

namespace numaio::topo {

struct LatencyParams {
  sim::Ns local_dram_ns = 100.0;  ///< Latency of a local memory access.
  sim::Ns per_hop_router_ns = 0.0; ///< Extra per traversed link (coherence
                                   ///< directory / crossbar overhead).
};

class LatencyModel {
 public:
  LatencyModel(const Routing& routing, LatencyParams params)
      : routing_(routing), params_(params) {}

  /// Latency for a CPU on `cpu_node` to access memory on `mem_node`.
  sim::Ns access_latency(NodeId cpu_node, NodeId mem_node) const;

  /// Mean remote latency / mean local latency (Table I's metric).
  double numa_factor() const;

  /// Worst-case remote latency / mean local latency.
  double max_numa_factor() const;

 private:
  const Routing& routing_;
  LatencyParams params_;
};

}  // namespace numaio::topo
