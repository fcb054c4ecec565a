// Host profiles: a topology plus the fabric ground truth a Machine runs on.
//
// The dl585 profile is the simulated stand-in for the paper's testbed
// (HP ProLiant DL585 G7, Table II). Its matrices are *calibrated*: the
// directed capacities, DMA latencies, and STREAM bandwidths are chosen so
// that every published number and ordering in the paper emerges from the
// simulation (the anchors are cited cell by cell in calibration.cpp).
// Everything downstream — STREAM characterization, fio-style I/O runs, the
// iomodel methodology — *measures* this ground truth through the same
// procedures the paper used; nothing downstream reads these tables
// directly.
#pragma once

#include <string>
#include <vector>

#include "fabric/path_matrix.h"
#include "topo/topology.h"

namespace numaio::fabric {

struct HostProfile {
  std::string name;
  topo::Topology topo;
  PathMatrix paths;

  /// Protocol-processing capacity per core, in "Gbps of TCP-equivalent
  /// work". A node's CPU resource capacity is cores * this.
  double cpu_units_per_core = 7.0;

  /// Last-level cache per die, MB (Table II: 5 MB on the Opteron 6136).
  /// STREAM's array-sizing rule (arrays >= 4x LLC) is checked against this.
  double llc_mb = 5.0;

  /// When true the Machine also models contention on the *individual
  /// interconnect links*: overlapping routes share directed link capacity
  /// (width * link_gbps_per_width_bit), so e.g. two streams whose shortest
  /// paths cross the same HT link contend even though their endpoints
  /// differ. Derived profiles enable this (the wiring is known); the
  /// calibrated DL585 profile keeps endpoint/path contention only (its
  /// matrices are measurements, not wiring).
  bool link_level_contention = false;
  double link_gbps_per_width_bit = 3.2;

  int num_nodes() const { return topo.num_nodes(); }
};

/// The paper's testbed host (8 nodes, devices on node 7). See Table II.
HostProfile dl585_profile();

/// A profile for an arbitrary topology with fabric characteristics derived
/// from link widths and latencies (no measured calibration).
HostProfile derived_profile(const topo::Topology& topo,
                            const DerivedFabricParams& params = {});

/// Two identical hosts in one resource network: nodes [0, n) are host A,
/// [n, 2n) host B, with block-diagonal fabric matrices (no coherent path
/// crosses hosts — inter-host traffic rides NICs and a wire, modelled by
/// io::HostPair). The paper's network experiments use exactly this
/// "another identical host" arrangement (Fig 2).
HostProfile pair_profile(const HostProfile& host);

}  // namespace numaio::fabric
