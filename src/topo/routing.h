// Deterministic shortest-path routing over a Topology, plus hop-distance
// matrices — the metric the paper argues is *insufficient* for NUMA cost
// modelling (§I-A). We implement it both because coherent fabrics really do
// route this way and because several benches contrast hop distance against
// measured bandwidth.
#pragma once

#include <vector>

#include "topo/topology.h"

namespace numaio::topo {

/// An ordered node path from src to dst (inclusive at both ends).
struct Route {
  std::vector<NodeId> nodes;
  /// Number of links traversed; 0 for the trivial self-route.
  int hops() const { return static_cast<int>(nodes.size()) - 1; }
};

class Routing {
 public:
  enum class Metric {
    kHops,     ///< Uniform link cost (pure hop distance).
    kLatency,  ///< Link latency_ns as cost.
  };

  Routing(const Topology& topo, Metric metric);

  /// Shortest route from src to dst. Ties are broken by fewer hops, then by
  /// lexicographically smallest node sequence, so routing tables are
  /// deterministic.
  const Route& route(NodeId src, NodeId dst) const;

  int hop_distance(NodeId src, NodeId dst) const;
  /// Total link latency along route(src, dst); 0 for src == dst.
  sim::Ns path_latency(NodeId src, NodeId dst) const;

  /// Largest hop distance over all pairs.
  int diameter() const;

  /// Mean hop distance over all ordered pairs with src != dst.
  double mean_remote_hops() const;

  const Topology& topology() const { return topo_; }

 private:
  const Topology& topo_;
  std::vector<Route> routes_;       // n*n, row-major
  std::vector<sim::Ns> latencies_;  // n*n, row-major
  std::size_t idx(NodeId s, NodeId d) const {
    return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(topo_.num_nodes()) +
           static_cast<std::size_t>(d);
  }
};

}  // namespace numaio::topo
