#include "nm/cores.h"

#include <algorithm>
#include <stdexcept>

#include "nm/policy.h"

namespace numaio::nm {

topo::NodeId node_of_core(const topo::Topology& topo, int core) {
  if (core < 0) throw std::out_of_range("core id must be non-negative");
  int base = 0;
  for (topo::NodeId node = 0; node < topo.num_nodes(); ++node) {
    const int cores = topo.node(node).cores;
    if (core < base + cores) return node;
    base += cores;
  }
  throw std::out_of_range("core id " + std::to_string(core) +
                          " beyond the host's " + std::to_string(base) +
                          " cores");
}

int first_core_of(const topo::Topology& topo, topo::NodeId node) {
  int base = 0;
  for (topo::NodeId v = 0; v < node; ++v) base += topo.node(v).cores;
  return base;
}

std::vector<topo::NodeId> nodes_of_core_list(const topo::Topology& topo,
                                             const std::string& list) {
  const int num_cores = first_core_of(topo, topo.num_nodes());
  std::vector<topo::NodeId> nodes;
  for (const int core : parse_id_list(list, num_cores - 1)) {
    nodes.push_back(node_of_core(topo, core));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace numaio::nm
