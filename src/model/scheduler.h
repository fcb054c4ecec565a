// Model-assisted task placement (§V-B, third application).
//
// "In a multi-user environment, binding all I/O tasks to their local node
// will lead to severe performance degradation due to the contention of
// shared resource. With the knowledge of our performance model, the task
// scheduler can distribute application processes to nodes in the same
// class or the classes with the same performance."
//
// The workflow mirrors the paper's RDMA_WRITE example: classify with the
// memcpy model, probe one representative binding per class to get I/O
// class values, pool the classes whose probed performance is within a
// tolerance of the best, and round-robin processes over the pooled nodes.
#pragma once

#include <span>
#include <vector>

#include "model/classify.h"

namespace numaio::model {

/// Classes whose probed value is within this fraction of the best class's
/// value join the spread's pool ("almost identical performance" in the
/// paper's example).
inline constexpr double kSpreadClassTolerance = 0.02;

struct Placement {
  /// Binding node per process.
  std::vector<NodeId> nodes;
};

/// Spread `num_processes` over all nodes of the near-best classes,
/// round-robin. `class_values` holds the probed I/O bandwidth per class.
Placement schedule_spread(const Classification& classes,
                          std::span<const sim::Gbps> class_values,
                          int num_processes);

/// The naive policy the paper argues against: everything on the
/// device-local node.
Placement schedule_all_local(NodeId device_node, int num_processes);

}  // namespace numaio::model
