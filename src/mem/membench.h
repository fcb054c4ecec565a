// Whole-host memory characterization drivers:
//  - stream_matrix(): the N x N bandwidth matrix of Figure 3 (every
//    CPU-node x memory-node binding),
//  - cpu_centric()/memory_centric(): the two node-level models of Figure 4,
//    which §IV-B tests (and rejects) as predictors of I/O performance.
#pragma once

#include <vector>

#include "mem/stream.h"

namespace numaio::mem {

struct BandwidthMatrix {
  /// bw[cpu_node][mem_node], best-of-repetitions STREAM bandwidth.
  std::vector<std::vector<sim::Gbps>> bw;

  int num_nodes() const { return static_cast<int>(bw.size()); }
  sim::Gbps at(NodeId cpu, NodeId mem) const {
    return bw[static_cast<std::size_t>(cpu)][static_cast<std::size_t>(mem)];
  }
};

/// Runs STREAM's Copy kernel for every (cpu node, memory node) pair —
/// Figure 3.
BandwidthMatrix stream_matrix(nm::Host& host);

/// "CPU centric" model of `target`: benchmark runs on `target`, memory
/// varies over all nodes — Figure 4(a). Element i is the bandwidth with
/// data on node i.
std::vector<sim::Gbps> cpu_centric(nm::Host& host, NodeId target);

/// "Memory centric" model of `target`: data lives on `target`, the
/// benchmark's node varies — Figure 4(b).
std::vector<sim::Gbps> memory_centric(nm::Host& host, NodeId target);

}  // namespace numaio::mem
