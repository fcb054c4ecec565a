// Host: the libnuma-facing view of a simulated Machine.
//
// Mirrors the libnuma entry points the paper's Algorithm 1 is written
// against (numa_num_configured_nodes, numa_alloc_onnode, run-on-node
// binding) plus the allocation bookkeeping behind numastat and
// "numactl --hardware". Buffers are placement records, not real memory:
// what matters to every experiment is *where* data lives, which determines
// the fabric paths transfers occupy.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fabric/machine.h"
#include "nm/numastat.h"
#include "nm/policy.h"
#include "simcore/units.h"

namespace numaio::nm {

/// A NUMA-placed allocation: total size plus bytes per node. For
/// non-interleaved buffers the placement is a single node.
struct Buffer {
  sim::Bytes size = 0;
  std::vector<std::pair<NodeId, sim::Bytes>> placement;

  /// Node holding the largest share (ties: lowest id). The home node
  /// determines fabric paths for whole-buffer transfers.
  NodeId home() const;
  bool interleaved() const { return placement.size() > 1; }
};

/// OS memory resident per node at "boot". The paper measured ~1.5 GB free
/// on node 0 versus ~4 GB on the others on an idle system (§IV-A) because
/// kernel buffers and shared libraries live on node 0.
struct OsFootprint {
  double node0_gb = 2.5;
  double other_gb = 0.1;
};

class Host {
 public:
  explicit Host(fabric::Machine& machine, OsFootprint os = {});

  fabric::Machine& machine() { return machine_; }
  const fabric::Machine& machine() const { return machine_; }

  // --- libnuma-style enumeration -----------------------------------------
  int num_configured_nodes() const;       ///< numa_num_configured_nodes()
  int num_configured_cores() const;       ///< total cores in the host
  int cores_on_node(NodeId node) const;
  sim::Bytes node_size_bytes(NodeId node) const;   ///< installed memory
  sim::Bytes node_free_bytes(NodeId node) const;   ///< currently free

  // --- allocation ---------------------------------------------------------
  /// numa_alloc_onnode: bind to one node, throw std::bad_alloc if full.
  Buffer alloc_on_node(sim::Bytes size, NodeId node);
  /// numa_alloc_interleaved over the given nodes (all nodes when empty).
  Buffer alloc_interleaved(sim::Bytes size, std::span<const NodeId> nodes = {});
  /// Default kernel policy: local to `running_node`, falling back to the
  /// node with the most free memory when the local node is full.
  Buffer alloc_local(sim::Bytes size, NodeId running_node);
  /// Allocation under an explicit Policy for a task running on
  /// `running_node` (what numactl does to an executable).
  Buffer alloc_with_policy(sim::Bytes size, const Policy& policy,
                           NodeId running_node);
  /// Releases a buffer's memory; the buffer is emptied.
  void free(Buffer& buffer);

  const AllocStats& stats() const { return stats_; }

  /// "numactl --hardware"-style report: nodes, cores, memory sizes and
  /// free memory (reproducing the node-0 OS-residency observation).
  std::string hardware_report() const;

 private:
  Buffer place_all_on(sim::Bytes size, NodeId node, NodeId intended);

  fabric::Machine& machine_;
  std::vector<sim::Bytes> free_bytes_;
  AllocStats stats_;
};

}  // namespace numaio::nm
