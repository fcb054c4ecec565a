#include "topo/latency.h"

#include <algorithm>
#include <cassert>

namespace numaio::topo {

sim::Ns LatencyModel::access_latency(NodeId cpu_node, NodeId mem_node) const {
  const int hops = routing_.hop_distance(cpu_node, mem_node);
  return params_.local_dram_ns + routing_.path_latency(cpu_node, mem_node) +
         params_.per_hop_router_ns * hops;
}

double LatencyModel::numa_factor() const {
  const int n = routing_.topology().num_nodes();
  if (n < 2) return 1.0;
  double local_sum = 0.0;
  double remote_sum = 0.0;
  int remote_count = 0;
  for (NodeId c = 0; c < n; ++c) {
    local_sum += access_latency(c, c);
    for (NodeId d = 0; d < n; ++d) {
      if (c != d) {
        remote_sum += access_latency(c, d);
        ++remote_count;
      }
    }
  }
  const double local_mean = local_sum / n;
  const double remote_mean = remote_sum / remote_count;
  return remote_mean / local_mean;
}

double LatencyModel::max_numa_factor() const {
  const int n = routing_.topology().num_nodes();
  if (n < 2) return 1.0;
  double local_sum = 0.0;
  sim::Ns worst = 0.0;
  for (NodeId c = 0; c < n; ++c) {
    local_sum += access_latency(c, c);
    for (NodeId d = 0; d < n; ++d) {
      if (c != d) worst = std::max(worst, access_latency(c, d));
    }
  }
  return worst / (local_sum / n);
}

}  // namespace numaio::topo
