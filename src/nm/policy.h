// NUMA placement policies, mirroring the Linux NUMA API (§II-B).
//
// The Linux default since kernel 2.6 is "local preferred": allocate on the
// node of the running CPU, fall back elsewhere when it is full. numactl(8)
// overrides this per task; libnuma does so per allocation. Our Policy
// covers the same space and parse_numactl() accepts the familiar
// command-line spellings so experiment configs read like the paper's.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "topo/topology.h"

namespace numaio::nm {

using topo::NodeId;

/// The highest node id a text input may name: job-file cpunodebind,
/// numactl node lists and a saved host model's node count are checked
/// against it before anything is sized from them.
inline constexpr NodeId kMaxNodeId = 1023;

/// Reads an id list in the numactl/cpuset form "0,3-5": comma-separated
/// ids and ascending lo-hi ranges, each id a whole integer in the shared
/// number grammar (docs/FORMATS.md "Numbers"). Returns the ids in list
/// order, ranges expanded. Throws std::invalid_argument naming the list
/// on an empty or malformed entry, and std::out_of_range when an id
/// exceeds `max_id`, which is checked before a range is expanded.
std::vector<int> parse_id_list(std::string_view list, int max_id);

enum class MemMode {
  kLocalPreferred,  ///< Default: node of the running CPU, with fallback.
  kBind,            ///< --membind: only the given nodes (hard failure).
  kPreferred,       ///< --preferred: given node first, fall back anywhere.
  kInterleave,      ///< --interleave: round-robin pages over given nodes.
};

struct Policy {
  MemMode mode = MemMode::kLocalPreferred;
  /// Memory nodes the mode refers to (empty = all nodes for interleave).
  std::vector<NodeId> mem_nodes;
  /// --cpunodebind: pin execution to this node's cores.
  std::optional<NodeId> cpu_node;

  bool operator==(const Policy&) const = default;
};

/// Parses a numactl-style option string, e.g.
///   "--cpunodebind=7 --membind=3"
///   "--cpunodebind=4 --interleave=0,1,2"
///   "--preferred=2"
/// Node lists are read by parse_id_list. Unrecognized options or
/// malformed node lists throw std::invalid_argument; a node id above
/// kMaxNodeId throws std::out_of_range.
Policy parse_numactl(const std::string& spec);

/// Renders a Policy back to its numactl-style spelling.
std::string to_numactl_string(const Policy& policy);

}  // namespace numaio::nm
