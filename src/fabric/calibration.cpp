#include "fabric/calibration.h"

#include <array>

#include "topo/presets.h"

namespace numaio::fabric {

namespace {

// ---------------------------------------------------------------------------
// DL585 G7 calibrated ground truth.
//
// All benchmarked devices sit on node 7, so the paper pins down row 7 and
// column 7 of each matrix; the remaining cells are filled with values
// consistent with the package structure ({0,1},{2,3},{4,5},{6,7}) and the
// same directional asymmetries mirrored onto node 6.
//
// Anchors (Gbps unless noted):
//  - kDmaCap column 7 = Table IV "Proposed memcpy" (device write model):
//      {6,7} 46.5-55.9 / {0,1,4,5} 42.9-46.9 / {2,3} 26.0-27.3.
//  - kDmaCap row 7 = Table V "Proposed memcpy" (device read model):
//      {6,7} 47.1-51.2 / {2,3} 46.9-50.3 / {0,1,5} 39.9-40.9 / {4} 27.9.
//  - The weak directions ({2,3}->{6,7} and {6,7}->{4}) model unganged
//    8-bit response paths / starved buffer credits (HT allows 8- or
//    16-bit directions; the paper cites [20],[26] for exactly this kind
//    of asymmetric setup). 8 bits * 3.2 Gbps/bit = 25.6 Gbps nominal.
//  - kDmaLat row/col 7 are set so window-limited device engines reproduce
//    the Table IV/V I/O rows (see io/ engine windows):
//      e.g. RDMA_READ: 16650 bits / 910 ns = 18.3 Gbps on {0,1,5},
//      16650 / 1035 = 16.1 on {4}, device-capped 22.0 on {2,3},{6,7} --
//      reproducing the paper's inversion vs. STREAM.
//  - kStream row 7 / column 7 = Fig 3/4 anchors: cpu7/mem4 = 21.34 with
//    mem{2,3} lower; cpu4/mem7 = 18.45 with cpu{2,3} higher; node-0 local
//    boost (31.5 vs ~28 local elsewhere, the OS-residency effect of
//    §IV-A); CPU-centric {0,1} vs {2,3} ~ +88%, memory-centric ~ +43%
//    (the ratios quoted in §IV-B2).
// ---------------------------------------------------------------------------

using Row = std::array<double, 8>;
using Table = std::array<Row, 8>;

// Streaming/DMA one-way capacity, src row -> dst column.
constexpr Table kDmaCap = {{
    /*0*/ {{52.5, 47.5, 41.8, 42.4, 41.2, 43.0, 43.5, 44.0}},
    /*1*/ {{46.8, 51.0, 42.9, 42.2, 42.8, 43.3, 44.8, 45.5}},
    /*2*/ {{42.6, 43.1, 51.8, 47.2, 41.6, 42.1, 26.6, 26.0}},
    /*3*/ {{43.3, 42.5, 46.6, 51.2, 42.3, 41.8, 27.0, 27.3}},
    /*4*/ {{42.1, 42.6, 41.9, 42.7, 51.6, 47.8, 42.5, 42.9}},
    /*5*/ {{43.8, 44.1, 42.4, 41.9, 46.9, 51.3, 46.2, 46.9}},
    /*6*/ {{41.5, 41.0, 49.8, 46.3, 28.4, 40.2, 52.0, 46.5}},
    /*7*/ {{40.9, 40.4, 50.3, 46.9, 27.9, 39.9, 47.1, 53.5}},
}};

// Effective DMA round-trip latency (ns), src row -> dst column.
constexpr Table kDmaLat = {{
    /*0*/ {{300, 520, 700, 700, 700, 700, 640, 620}},
    /*1*/ {{520, 300, 700, 700, 700, 700, 630, 615}},
    /*2*/ {{700, 700, 300, 520, 700, 700, 1005, 1000}},
    /*3*/ {{700, 700, 520, 300, 700, 700, 1005, 1000}},
    /*4*/ {{700, 700, 700, 700, 300, 520, 640, 625}},
    /*5*/ {{700, 700, 700, 700, 520, 300, 615, 610}},
    /*6*/ {{905, 905, 575, 580, 1030, 905, 300, 520}},
    /*7*/ {{910, 910, 570, 570, 1035, 910, 520, 300}},
}};

// Node-level STREAM Copy bandwidth (4 threads), cpu row -> memory column.
constexpr Table kStream = {{
    /*0*/ {{31.5, 26.2, 21.8, 22.0, 21.2, 22.6, 27.2, 28.0}},
    /*1*/ {{25.9, 27.8, 22.1, 21.7, 21.5, 22.2, 26.8, 27.4}},
    /*2*/ {{21.6, 21.9, 28.4, 25.7, 20.8, 21.1, 18.8, 19.2}},
    /*3*/ {{22.0, 21.5, 25.4, 27.9, 21.0, 20.7, 19.1, 19.6}},
    /*4*/ {{21.3, 21.6, 20.9, 21.2, 28.6, 25.9, 18.9, 18.45}},
    /*5*/ {{22.4, 22.7, 21.3, 20.9, 25.6, 28.1, 21.0, 21.5}},
    /*6*/ {{25.8, 25.2, 14.6, 14.2, 21.0, 22.4, 29.2, 26.2}},
    /*7*/ {{26.5, 25.9, 14.0, 13.8, 21.34, 23.0, 25.5, 29.0}},
}};

}  // namespace

HostProfile dl585_profile() {
  topo::Topology topo = topo::dl585_g7();
  PathMatrix paths(topo.num_nodes());
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      PathCharacter& c = paths.at(a, b);
      const auto ai = static_cast<std::size_t>(a);
      const auto bi = static_cast<std::size_t>(b);
      c.dma_cap = kDmaCap[ai][bi];
      c.dma_lat = kDmaLat[ai][bi];
      c.stream_bw = kStream[ai][bi];
    }
  }
  HostProfile profile{"hp-dl585-g7", std::move(topo), std::move(paths)};
  profile.cpu_units_per_core = 7.0;
  return profile;
}

HostProfile pair_profile(const HostProfile& host) {
  const int n = host.num_nodes();

  // Duplicate the node list; host B's packages are offset past A's.
  std::vector<topo::NodeSpec> nodes;
  nodes.reserve(static_cast<std::size_t>(2 * n));
  for (int copy = 0; copy < 2; ++copy) {
    for (NodeId i = 0; i < n; ++i) {
      topo::NodeSpec spec = host.topo.node(i);
      spec.package += copy * host.topo.num_packages();
      nodes.push_back(spec);
    }
  }
  // Duplicate the links. A 2-bit pseudo-link joins the two copies only to
  // satisfy the connectivity validator: the pair's fabric matrices are
  // block-diagonal and link-level contention is disabled, so no transfer
  // ever routes across it — inter-host traffic rides NICs and the wire
  // (io::HostPair).
  std::vector<topo::LinkSpec> links;
  for (int copy = 0; copy < 2; ++copy) {
    for (const topo::LinkSpec& l : host.topo.links()) {
      topo::LinkSpec dup = l;
      dup.a += copy * n;
      dup.b += copy * n;
      links.push_back(dup);
    }
  }
  links.push_back(topo::LinkSpec{0, n, 2.0, 2.0, 1.0e6});

  PathMatrix paths(2 * n);
  for (NodeId a = 0; a < 2 * n; ++a) {
    for (NodeId b = 0; b < 2 * n; ++b) {
      PathCharacter& c = paths.at(a, b);
      if (a / n == b / n) {
        c = host.paths.at(a % n, b % n);
      } else {
        // Cross-host coherent access does not exist; keep the entries
        // valid but absurd so any accidental use is unmistakable.
        c.dma_cap = 0.01;
        c.dma_lat = 1.0e9;
        c.stream_bw = 0.01;
      }
    }
  }

  HostProfile pair{host.name + "-pair",
                   topo::Topology::build(host.name + "-pair",
                                         std::move(nodes), std::move(links)),
                   std::move(paths)};
  pair.cpu_units_per_core = host.cpu_units_per_core;
  pair.llc_mb = host.llc_mb;
  pair.link_level_contention = false;
  return pair;
}

HostProfile derived_profile(const topo::Topology& topo,
                            const DerivedFabricParams& params) {
  const topo::Routing routing(topo, topo::Routing::Metric::kLatency);
  PathMatrix paths = derive_from_topology(topo, routing, params);
  HostProfile profile{topo.name(), topo, std::move(paths)};
  profile.link_level_contention = true;
  profile.link_gbps_per_width_bit = params.gbps_per_width_bit;
  return profile;
}

}  // namespace numaio::fabric
