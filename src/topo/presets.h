// Topology presets:
//  - the four possible 4P Magny-Cours interconnect layouts of Figure 1,
//  - the four server configurations of Table I (with latency parameters
//    tuned to the published NUMA factors), and
//  - the paper's testbed host (HP ProLiant DL585 G7, Table II).
#pragma once

#include <string>
#include <vector>

#include "topo/latency.h"
#include "topo/topology.h"

namespace numaio::topo {

/// One of the Figure-1 4P Magny-Cours layout variants.
/// 'a'..'c' follow the AMD designers' layouts of [13]; 'd' is the variant
/// reported in [3]. All have 8 nodes in packages {0,1},{2,3},{4,5},{6,7},
/// 16-bit intra-package links and 8-bit inter-package links.
Topology magny_cours_4p(char variant);

/// The paper's testbed: DL585 G7, 8 nodes, 4 cores/node, 4 GB/node,
/// I/O hubs on nodes 1 and 7 (all benchmarked devices sit on node 7).
/// Uses the Figure-1(a) layout as the nominal wiring; the *measured*
/// fabric character comes from fabric::dl585_profile(), which — as the
/// paper found — is not explained by any Figure-1 layout.
Topology dl585_g7();

/// A Table-I server configuration: topology + latency parameters tuned so
/// LatencyModel::numa_factor() reproduces the published factor.
struct ServerPreset {
  std::string label;         ///< Row label from Table I.
  Topology topo;
  LatencyParams latency;
  double paper_numa_factor;  ///< Published value.
};

ServerPreset intel_4socket_4node();  ///< Table I row 1: factor 1.5
ServerPreset amd_4socket_8node();    ///< Table I row 2: factor 2.7
ServerPreset amd_8socket_8node();    ///< Table I row 3: factor 2.8
ServerPreset hp_blade_32node();      ///< Table I row 4: factor 5.5

/// All four Table-I rows in order.
std::vector<ServerPreset> table1_presets();

}  // namespace numaio::topo
