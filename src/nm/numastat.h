// numastat-style allocation counters (§II-B): per-node hit/miss/foreign and
// interleave statistics maintained by the Host allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.h"

namespace numaio::nm {

/// Counters for one NUMA node, with the same meanings as numastat(8):
///  - numa_hit: allocations that landed on the node they were intended for.
///  - numa_miss: allocations that landed here although intended elsewhere.
///  - numa_foreign: allocations intended here that were pushed elsewhere
///    (every miss on node A is a foreign on the intended node B).
///  - interleave_hit: interleaved allocations that landed as intended.
struct NodeStats {
  std::uint64_t numa_hit = 0;
  std::uint64_t numa_miss = 0;
  std::uint64_t numa_foreign = 0;
  std::uint64_t interleave_hit = 0;
};

class AllocStats {
 public:
  explicit AllocStats(int num_nodes)
      : per_node_(static_cast<std::size_t>(num_nodes)) {}

  NodeStats& node(topo::NodeId id) {
    return per_node_[static_cast<std::size_t>(id)];
  }
  const NodeStats& node(topo::NodeId id) const {
    return per_node_[static_cast<std::size_t>(id)];
  }

 private:
  std::vector<NodeStats> per_node_;
};

}  // namespace numaio::nm
