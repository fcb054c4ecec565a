#include "model/scheduler.h"

#include <cassert>

namespace numaio::model {

namespace {

/// `num_processes` bindings cycling through `pool` in order.
Placement round_robin(std::span<const NodeId> pool, int num_processes) {
  assert(num_processes > 0);
  assert(!pool.empty());
  Placement p;
  p.nodes.reserve(static_cast<std::size_t>(num_processes));
  for (int i = 0; i < num_processes; ++i) {
    p.nodes.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);
  }
  return p;
}

/// First reason the model is unusable for placing against `target`, or ""
/// when it is healthy.
std::string model_unusable_reason(const HostModel& model, NodeId target,
                                  Direction dir,
                                  std::span<const sim::Gbps> class_values,
                                  const RobustScheduleConfig& config) {
  if (model.stale) return "model marked stale";
  if (target < 0 || target >= model.num_nodes) {
    return "target outside the model";
  }
  const IoModelResult& m = model.model_for(target, dir);
  const Classification& c = model.classes_for(target, dir);
  for (sim::Gbps v : m.bw) {
    if (!(v > 0.0)) return "model holds non-positive bandwidth";
  }
  // A model parsed from disk carries no outcomes; absence means the
  // measurements completed cleanly when they were taken.
  for (const sim::MeasurementOutcome& o : m.outcomes) {
    if (!o.ok) return "a model probe aborted";
    if (o.confidence < config.min_confidence) {
      return "a model probe reported low confidence";
    }
  }
  if (static_cast<int>(class_values.size()) != c.num_classes()) {
    return "class value count mismatch";
  }
  bool any_positive = false;
  for (sim::Gbps v : class_values) {
    if (v > 0.0) any_positive = true;
  }
  if (!any_positive) return "no usable class probe values";
  return "";
}

}  // namespace

Placement schedule_spread(const Classification& classes,
                          std::span<const sim::Gbps> class_values,
                          int num_processes) {
  return round_robin(
      near_best_pool(classes, class_values, kSpreadClassTolerance),
      num_processes);
}

Placement schedule_all_local(NodeId device_node, int num_processes) {
  assert(num_processes > 0);
  Placement p;
  p.nodes.assign(static_cast<std::size_t>(num_processes), device_node);
  return p;
}

RobustPlacement schedule_robust(const HostModel& model,
                                const topo::Topology& topo, NodeId target,
                                Direction dir,
                                std::span<const sim::Gbps> class_values,
                                int num_processes,
                                const RobustScheduleConfig& config) {
  assert(num_processes > 0);
  RobustPlacement result;
  result.reason =
      model_unusable_reason(model, target, dir, class_values, config);
  if (result.reason.empty()) {
    result.placement = schedule_spread(model.classes_for(target, dir),
                                       class_values, num_processes);
  } else {
    result.used_fallback = true;
    // Round-robin over the best hop class (local + package neighbour).
    result.placement = round_robin(classify_by_hops(topo, target).classes[0],
                                   num_processes);
  }
  if (obs::Context* obs = config.obs; obs != nullptr) {
    obs->metrics.add(obs->metrics.counter("sched.placements"));
    if (result.used_fallback) {
      obs->metrics.add(obs->metrics.counter("sched.fallbacks"));
    }
    if (obs->trace.enabled()) {
      obs::EventFields fields;
      fields.node_a = target;
      fields.dir = dir == Direction::kDeviceWrite ? 'w' : 'r';
      fields.detail = result.reason;
      obs->trace.event("sched.place", config.obs_parent, 0,
                       result.used_fallback ? "fallback" : "model", fields);
    }
  }
  return result;
}

}  // namespace numaio::model
