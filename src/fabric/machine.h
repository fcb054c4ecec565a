// Machine: a simulated NUMA host assembled from a HostProfile.
//
// The Machine owns a FlowSolver populated with the host's shared hardware
// resources:
//   - one fabric resource per directed node pair (streaming capacity),
//   - per-node memory-controller read and write resources,
//   - per-node CPU budgets (protocol processing / interrupt handling).
// Upper layers (mem::, io::) express transfers as weighted usages of these
// resources plus their own device resources, then solve for steady-state
// rates or run fluid-time simulations.
#pragma once

#include <vector>

#include "fabric/calibration.h"
#include "simcore/flow_solver.h"

namespace numaio::fabric {

class Machine {
 public:
  explicit Machine(HostProfile profile);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const HostProfile& profile() const { return profile_; }
  const topo::Topology& topology() const { return profile_.topo; }
  int num_nodes() const { return profile_.num_nodes(); }
  int cores_per_node(NodeId node) const {
    return topology().node(node).cores;
  }

  sim::FlowSolver& solver() { return solver_; }
  const sim::FlowSolver& solver() const { return solver_; }

  const PathCharacter& path(NodeId a, NodeId b) const {
    return profile_.paths.at(a, b);
  }

  /// Fabric resource for the directed pair src -> dst (src != dst).
  sim::ResourceId fabric_resource(NodeId src, NodeId dst) const;

  /// All fabric usages of a src -> dst stream: the pair resource plus,
  /// for link-level profiles, every directed link on the routed path (so
  /// overlapping routes contend on shared links).
  const std::vector<sim::Usage>& fabric_usages(NodeId src,
                                               NodeId dst) const;
  sim::ResourceId mc_read(NodeId node) const;
  sim::ResourceId mc_write(NodeId node) const;
  sim::ResourceId cpu(NodeId node) const;

  /// Usage footprint of a streaming memory copy executed by an engine on
  /// node `via`, loading from memory on `src` and storing to memory on
  /// `dst`: mc_read(src) [+ fabric src->via] + [fabric via->dst +]
  /// mc_write(dst). Every byte crosses each leg once.
  std::vector<sim::Usage> copy_usages(NodeId via, NodeId src,
                                      NodeId dst) const;

  /// Usage footprint of a device DMA transfer between host memory on
  /// `mem_node` and a device attached to `dev_node` (the PCIe side is the
  /// caller's own device resource): the fabric leg plus the memory
  /// controller on the host side. `to_device` true means the DMA engine
  /// reads host memory (device write direction).
  std::vector<sim::Usage> dma_usages(NodeId mem_node, NodeId dev_node,
                                     bool to_device) const;

  // --- fault-injection hooks (faults::FaultInjector) ----------------------
  // Capacity scales multiply the *calibrated* resource capacities in the
  // solver, so every consumer — fio streams, iomodel copies, STREAM runs —
  // sees the degradation through the same contention math it always used.
  // profile() keeps reporting the healthy ground truth; scale 1.0 restores
  // it. Scales clamp below at a tiny positive floor so max-min fairness
  // stays well-defined during a full stall.

  /// Scales the directed src -> dst fabric capacity (link degradation).
  void set_fabric_scale(NodeId src, NodeId dst, double scale);
  /// Scales a node's memory-controller read+write capacity (MC throttle).
  void set_mc_scale(NodeId node, double scale);
  /// Scales a node's CPU budget (IRQ storm eating protocol cycles).
  void set_cpu_scale(NodeId node, double scale);
  /// Restores every scaled capacity to its calibrated value.
  void reset_fault_scales();

 private:
  HostProfile profile_;
  sim::FlowSolver solver_;
  std::vector<sim::ResourceId> fabric_;  // n*n, diagonal unused
  std::vector<std::vector<sim::Usage>> fabric_usages_;  // n*n
  std::vector<sim::ResourceId> mc_read_;
  std::vector<sim::ResourceId> mc_write_;
  std::vector<sim::ResourceId> cpu_;
};

}  // namespace numaio::fabric
