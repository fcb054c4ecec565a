// NUMA host topology: nodes (CPU die + memory bank [+ I/O hub]) joined by
// point-to-point coherent interconnect links (HyperTransport in the paper's
// AMD testbed).
//
// Terminology follows the paper (§II-A): a node's "local" resources are
// those attached to its own die; a "neighbor" is the other die in the same
// package; everything else is "remote" at some hop distance.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "simcore/units.h"

namespace numaio::topo {

using NodeId = int;

/// One NUMA node: a CPU die with its directly attached memory, and
/// optionally an I/O hub hanging off one of its HT ports.
struct NodeSpec {
  int package = 0;        ///< CPU package (socket) index.
  int cores = 4;          ///< CPU cores on this die.
  double memory_gb = 4.0; ///< Directly attached memory.
  bool io_hub = false;    ///< True when an I/O hub (PCIe root) is attached.
};

/// A bidirectional interconnect link between two nodes. HT 3.0 links can be
/// configured 8 or 16 bits wide per direction, and the two directions may
/// differ (the paper cites directional width/buffer asymmetry as a source of
/// bandwidth asymmetry).
struct LinkSpec {
  NodeId a = 0;
  NodeId b = 0;
  double width_bits_ab = 16.0;  ///< Link width in the a->b direction.
  double width_bits_ba = 16.0;  ///< Link width in the b->a direction.
  sim::Ns latency_ns = 40.0;    ///< One-way propagation + router latency.
};

/// Validated immutable topology graph.
class Topology {
 public:
  /// Builds and validates a topology. Requirements: at least one node,
  /// link endpoints in range and distinct, no duplicate links, graph
  /// connected, and every node's HT port budget respected
  /// (total attached link width / 16 + 1 for an I/O hub <= 4 ports,
  /// the AMD G34 pin constraint from §II-A).
  /// Throws std::invalid_argument on violation.
  static Topology build(std::string name, std::vector<NodeSpec> nodes,
                        std::vector<LinkSpec> links);

  const std::string& name() const { return name_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const NodeSpec& node(NodeId id) const;
  std::span<const NodeSpec> nodes() const { return nodes_; }
  std::span<const LinkSpec> links() const { return links_; }

  int num_packages() const { return num_packages_; }
  int total_cores() const;

  bool adjacent(NodeId a, NodeId b) const;
  /// Index into links() of the link joining a and b, or -1.
  int link_index(NodeId a, NodeId b) const;
  /// Link width in the a->b direction; 0 when not adjacent.
  double direction_width(NodeId a, NodeId b) const;
  /// Sorted list of nodes directly linked to `id`.
  std::vector<NodeId> neighbors(NodeId id) const;
  /// Nodes sharing `id`'s package, excluding `id` itself (sorted).
  std::vector<NodeId> package_peers(NodeId id) const;

 private:
  Topology() = default;

  std::string name_;
  std::vector<NodeSpec> nodes_;
  std::vector<LinkSpec> links_;
  std::vector<int> link_of_pair_;  // n*n matrix of link indices, -1 if none
  int num_packages_ = 0;
};

}  // namespace numaio::topo
