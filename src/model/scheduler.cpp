#include "model/scheduler.h"

#include <cassert>

namespace numaio::model {

Placement schedule_spread(const Classification& classes,
                          std::span<const sim::Gbps> class_values,
                          int num_processes) {
  assert(num_processes > 0);
  const std::vector<NodeId> pool =
      near_best_pool(classes, class_values, kSpreadClassTolerance);
  // Round-robin over the pool, in ascending node order.
  Placement p;
  p.nodes.reserve(static_cast<std::size_t>(num_processes));
  for (int i = 0; i < num_processes; ++i) {
    p.nodes.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);
  }
  return p;
}

Placement schedule_all_local(NodeId device_node, int num_processes) {
  assert(num_processes > 0);
  Placement p;
  p.nodes.assign(static_cast<std::size_t>(num_processes), device_node);
  return p;
}

}  // namespace numaio::model
