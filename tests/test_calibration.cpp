// Checks that the DL585 calibrated ground truth encodes every anchor the
// paper publishes. Downstream tests verify these re-emerge through the
// measurement procedures; this file pins the calibration itself.
#include "fabric/calibration.h"

#include <gtest/gtest.h>

#include <vector>

#include "topo/presets.h"

namespace numaio::fabric {
namespace {

class Dl585 : public ::testing::Test {
 protected:
  HostProfile profile_ = dl585_profile();
};

TEST_F(Dl585, EightNodesNamedAfterTheHost) {
  EXPECT_EQ(profile_.num_nodes(), 8);
  EXPECT_EQ(profile_.name, "hp-dl585-g7");
  EXPECT_DOUBLE_EQ(profile_.llc_mb, 5.0);
}

TEST_F(Dl585, DeviceWriteModelColumnClasses) {
  // Table IV proposed-memcpy classes: {6,7} / {0,1,4,5} / {2,3}.
  const auto cap_to_7 = [&](NodeId i) { return profile_.paths.at(i, 7).dma_cap; };
  for (NodeId i : {0, 1, 4, 5}) {
    EXPECT_GE(cap_to_7(i), 42.9) << i;
    EXPECT_LE(cap_to_7(i), 46.9) << i;
  }
  for (NodeId i : {2, 3}) {
    EXPECT_GE(cap_to_7(i), 26.0) << i;
    EXPECT_LE(cap_to_7(i), 27.3) << i;
  }
  EXPECT_GE(cap_to_7(6), 46.5);
  EXPECT_GE(cap_to_7(7), 51.0);
}

TEST_F(Dl585, DeviceReadModelRowClasses) {
  // Table V proposed-memcpy classes: {6,7} / {2,3} / {0,1,5} / {4}.
  const auto cap_from_7 = [&](NodeId i) {
    return profile_.paths.at(7, i).dma_cap;
  };
  for (NodeId i : {2, 3}) {
    EXPECT_GE(cap_from_7(i), 46.9) << i;
    EXPECT_LE(cap_from_7(i), 50.3) << i;
  }
  for (NodeId i : {0, 1, 5}) {
    EXPECT_GE(cap_from_7(i), 39.9) << i;
    EXPECT_LE(cap_from_7(i), 40.9) << i;
  }
  EXPECT_NEAR(cap_from_7(4), 27.9, 1e-9);
  EXPECT_GE(cap_from_7(6), 47.1);
}

TEST_F(Dl585, DirectionalAsymmetryOfWeakPaths) {
  // {2,3}->7 is weak while 7->{2,3} is strong; 7->4 weak while 4->7 is
  // mid-range — the request/response-buffer asymmetry of §IV-A.
  EXPECT_LT(profile_.paths.at(2, 7).dma_cap, 30.0);
  EXPECT_GT(profile_.paths.at(7, 2).dma_cap, 45.0);
  EXPECT_LT(profile_.paths.at(7, 4).dma_cap, 30.0);
  EXPECT_GT(profile_.paths.at(4, 7).dma_cap, 40.0);
}

TEST_F(Dl585, StreamAnchorsFromFigure3) {
  // cpu7/mem4 = 21.34, better than cpu7/mem{2,3}.
  EXPECT_DOUBLE_EQ(profile_.paths.at(7, 4).stream_bw, 21.34);
  EXPECT_LT(profile_.paths.at(7, 2).stream_bw, 21.34);
  EXPECT_LT(profile_.paths.at(7, 3).stream_bw, 21.34);
  // cpu4/mem7 = 18.45, worse than cpu{2,3}/mem7.
  EXPECT_DOUBLE_EQ(profile_.paths.at(4, 7).stream_bw, 18.45);
  EXPECT_GT(profile_.paths.at(2, 7).stream_bw, 18.45);
  EXPECT_GT(profile_.paths.at(3, 7).stream_bw, 18.45);
}

TEST_F(Dl585, Node0LocalStreamBoost) {
  // §IV-A: node 0 outperforms all other local bindings (OS residency).
  const double node0 = profile_.paths.at(0, 0).stream_bw;
  for (NodeId i = 1; i < 8; ++i) {
    EXPECT_GT(node0, profile_.paths.at(i, i).stream_bw) << i;
  }
}

TEST_F(Dl585, CpuCentricRatioZeroOneVsTwoThree) {
  // §IV-B2: in the CPU-centric model node {0,1} beat {2,3} by up to ~88%.
  const double avg01 = (profile_.paths.at(7, 0).stream_bw +
                        profile_.paths.at(7, 1).stream_bw) / 2.0;
  const double avg23 = (profile_.paths.at(7, 2).stream_bw +
                        profile_.paths.at(7, 3).stream_bw) / 2.0;
  EXPECT_NEAR(avg01 / avg23, 1.88, 0.08);
}

TEST_F(Dl585, MemoryCentricRatioZeroOneVsTwoThree) {
  // ... and by ~43% in the memory-centric model.
  const double avg01 = (profile_.paths.at(0, 7).stream_bw +
                        profile_.paths.at(1, 7).stream_bw) / 2.0;
  const double avg23 = (profile_.paths.at(2, 7).stream_bw +
                        profile_.paths.at(3, 7).stream_bw) / 2.0;
  EXPECT_NEAR(avg01 / avg23, 1.43, 0.08);
}

TEST_F(Dl585, PioAndDmaPathsDisagree) {
  // The central §IV-C observation: the PIO path from 7 to {2,3} is bad
  // while the DMA path 7->{2,3} is good. A single-path model cannot
  // represent this; PathCharacter carries both.
  EXPECT_LT(profile_.paths.at(7, 2).stream_bw,
            profile_.paths.at(7, 0).stream_bw);
  EXPECT_GT(profile_.paths.at(7, 2).dma_cap,
            profile_.paths.at(7, 0).dma_cap);
}

TEST_F(Dl585, DmaLatencyAnchors) {
  // Window math of the device engines (see io/nic.cpp): these three
  // latencies produce the RDMA_READ classes 18.3 / 16.1 / 22.0.
  EXPECT_DOUBLE_EQ(profile_.paths.at(7, 0).dma_lat, 910.0);
  EXPECT_DOUBLE_EQ(profile_.paths.at(7, 4).dma_lat, 1035.0);
  EXPECT_DOUBLE_EQ(profile_.paths.at(7, 2).dma_lat, 570.0);
  EXPECT_DOUBLE_EQ(profile_.paths.at(2, 7).dma_lat, 1000.0);
}

TEST_F(Dl585, AllCellsPositive) {
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      const auto& c = profile_.paths.at(i, j);
      EXPECT_GT(c.dma_cap, 0.0);
      EXPECT_GT(c.dma_lat, 0.0);
      EXPECT_GT(c.stream_bw, 0.0);
    }
  }
}

TEST(DerivedProfile, WrapsTopologyName) {
  const auto topo = topo::magny_cours_4p('b');
  const HostProfile p = derived_profile(topo);
  EXPECT_EQ(p.name, topo.name());
  EXPECT_EQ(p.num_nodes(), 8);
}

// --- pair profile (two hosts in one network) ------------------------------

TEST(PairProfile, DoublesTheHost) {
  const HostProfile single = dl585_profile();
  const HostProfile pair = pair_profile(single);
  EXPECT_EQ(pair.num_nodes(), 16);
  EXPECT_EQ(pair.topo.num_packages(), 8);
  EXPECT_EQ(pair.name, "hp-dl585-g7-pair");
  EXPECT_FALSE(pair.link_level_contention);
}

TEST(PairProfile, BlocksMirrorAndCrossBlockIsAbsurd) {
  const HostProfile single = dl585_profile();
  const HostProfile pair = pair_profile(single);
  EXPECT_DOUBLE_EQ(pair.paths.at(10, 15).dma_cap,
                   single.paths.at(2, 7).dma_cap);
  EXPECT_LT(pair.paths.at(3, 11).dma_cap, 0.1);
  EXPECT_GT(pair.paths.at(3, 11).dma_lat, 1e8);
}

TEST(PairProfile, HostBKeepsIoHubs) {
  const HostProfile pair = pair_profile(dl585_profile());
  std::vector<NodeId> hubs;
  for (NodeId v = 0; v < pair.num_nodes(); ++v) {
    if (pair.topo.node(v).io_hub) hubs.push_back(v);
  }
  EXPECT_EQ(hubs, (std::vector<NodeId>{1, 7, 9, 15}));
}

}  // namespace
}  // namespace numaio::fabric
