// Core-level binding helpers.
//
// §IV-A: "Cores attached to the same NUMA node are supposed to show the
// identical memory and I/O bandwidth when accessing data on a given node
// ... Hence, we need only to focus on node-level characterization."
// These helpers expose the core<->node mapping (numbered node-major, as
// the hardware report prints) so callers can express core-level bindings,
// and node_of_core() lets the node-level machinery serve them. The
// equivalence itself is checked by tests/bench rather than assumed.
#pragma once

#include "topo/topology.h"

namespace numaio::nm {

/// Node owning `core` under node-major numbering; throws
/// std::out_of_range for an invalid core id.
topo::NodeId node_of_core(const topo::Topology& topo, int core);

/// First core id of `node` (node-major numbering).
int first_core_of(const topo::Topology& topo, topo::NodeId node);

/// Parses a taskset-style core list ("0,3-5", read by parse_id_list) and
/// returns the node ids the cores map to, deduplicated and sorted. Throws
/// std::invalid_argument on malformed input, std::out_of_range on a core
/// id the host lacks.
std::vector<topo::NodeId> nodes_of_core_list(const topo::Topology& topo,
                                             const std::string& list);

}  // namespace numaio::nm
