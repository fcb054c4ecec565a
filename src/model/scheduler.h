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
#include <string>
#include <vector>

#include "model/baselines.h"
#include "model/characterize.h"
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

struct RobustScheduleConfig {
  /// A model whose probe confidence for the target fell below this is
  /// treated as unusable and triggers the hop-distance fallback.
  double min_confidence = 0.5;
  /// Optional observability: each call emits a `sched.place` event
  /// (outcome "model" or "fallback" with the reason) and maintains the
  /// sched.placements / sched.fallbacks counters. nullptr = silent.
  obs::Context* obs = nullptr;
  /// Span the `sched.place` event is recorded under.
  obs::SpanId obs_parent = 0;
};

struct RobustPlacement {
  Placement placement;
  /// True when the hop-distance baseline placed the processes because the
  /// measured model was unusable (stale, aborted probes, low confidence,
  /// or malformed class values).
  bool used_fallback = false;
  std::string reason;  ///< Why the fallback engaged; empty when it didn't.
};

/// Model-assisted spread with graceful degradation. When the model is
/// healthy this is exactly schedule_spread over the target's classes;
/// when it is stale, its probes aborted or came back low-confidence, or
/// the probed class values are unusable, it falls back to the
/// hop-distance baseline (§I-A) and spreads over the local+neighbour hop
/// class instead of failing — degraded placement beats no placement.
RobustPlacement schedule_robust(const HostModel& model,
                                const topo::Topology& topo, NodeId target,
                                Direction dir,
                                std::span<const sim::Gbps> class_values,
                                int num_processes,
                                const RobustScheduleConfig& config = {});

}  // namespace numaio::model
