// Performance-class partitioning (§V-A, Tables IV & V).
//
// The methodology's deliverable is not the raw bandwidth vector but a
// partition of nodes into performance classes: "the local and neighboring
// nodes are always assigned to the first class, and the main task ... is
// to classify the remote nodes". Remote nodes are clustered by relative
// bandwidth gaps: walking the sorted values, a new class opens whenever
// the next value falls more than `rel_gap` below the previous one.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/iomodel.h"
#include "topo/topology.h"

namespace numaio::model {

struct ClassifyConfig {
  /// Relative gap that opens a new class among remote nodes.
  double rel_gap = 0.08;

  /// ok(), or kUsage naming `rel_gap` when it is not a finite value in
  /// [0, 1].
  Status validate() const;
};

struct Classification {
  /// classes[0] is the local+neighbor class; the rest are remote classes
  /// in descending bandwidth order. Node ids within a class are sorted.
  std::vector<std::vector<NodeId>> classes;
  /// Mean model bandwidth per class (same indexing as `classes`).
  std::vector<sim::Gbps> class_avg;
  /// Min/max model bandwidth per class.
  std::vector<std::pair<sim::Gbps, sim::Gbps>> class_range;
  /// class_of[node] = index into `classes`.
  std::vector<int> class_of;

  int num_classes() const { return static_cast<int>(classes.size()); }
};

/// Partitions the nodes of an iomodel result. `topo` supplies the
/// local/neighbor relation for the target node.
Classification classify(const IoModelResult& model,
                        const topo::Topology& topo,
                        const ClassifyConfig& config = {});

/// Generic form over a raw per-node bandwidth vector. Both forms throw
/// StatusError(kUsage) when config.validate() fails.
Classification classify_values(std::span<const sim::Gbps> bw, NodeId target,
                               const topo::Topology& topo,
                               const ClassifyConfig& config = {});

/// A partition's statistics over a per-node value vector: `class_of`,
/// and each class's mean and min/max of `values` — a Tables IV/V row.
/// Members are summed in the order given. Every class must be non-empty
/// and every member index `values`.
Classification summarize_classes(std::vector<std::vector<NodeId>> classes,
                                 std::span<const double> values);

/// §V-B's placement pool: the nodes of every class whose value is within
/// `tolerance` (a fraction) of the best class value, in ascending order.
/// `class_values` is indexed like `classes.classes`.
std::vector<NodeId> near_best_pool(const Classification& classes,
                                   std::span<const double> class_values,
                                   double tolerance);

/// The §V-A gap walk over an arbitrary value vector — the clustering
/// core shared by classify_values (remote NUMA nodes) and the fleet's
/// host-class placement (per-host capacity summaries). Positions are
/// ranked by descending value (ties: lower index) and a new class opens
/// whenever the next value falls more than `rel_gap` below the previous
/// one. Returns class_of[i] for every input position; class 0 is the
/// fastest band.
std::vector<int> gap_classes(std::span<const double> values, double rel_gap);

/// One representative node per class — the paper's characterization-cost
/// reduction: probing just these bindings stands in for the full sweep
/// ("the evaluation cost decreases by 50%" on the 8-node host).
std::vector<NodeId> representative_nodes(const Classification& c);

}  // namespace numaio::model
