#include "nm/host.h"

#include <gtest/gtest.h>

#include <new>

#include "nm/hwloc_view.h"
#include "topo/presets.h"

namespace numaio::nm {
namespace {

class HostTest : public ::testing::Test {
 protected:
  fabric::Machine machine_{fabric::dl585_profile()};
  Host host_{machine_};
};

TEST_F(HostTest, EnumerationMatchesTableII) {
  EXPECT_EQ(host_.num_configured_nodes(), 8);
  EXPECT_EQ(host_.num_configured_cores(), 32);
  EXPECT_EQ(host_.cores_on_node(3), 4);
  EXPECT_EQ(host_.node_size_bytes(0), 4 * sim::kGiB);
}

TEST_F(HostTest, Node0HasLessFreeMemoryOnIdleSystem) {
  // §IV-A: "all nodes have almost 4GBytes free memory, except for the
  // first one with only 1.5GBytes".
  EXPECT_NEAR(static_cast<double>(host_.node_free_bytes(0)) / sim::kGiB,
              1.5, 0.01);
  for (NodeId i = 1; i < 8; ++i) {
    EXPECT_GT(host_.node_free_bytes(i), 3 * sim::kGiB) << i;
  }
}

TEST_F(HostTest, AllocOnNodeTracksFreeMemoryAndStats) {
  const auto before = host_.node_free_bytes(5);
  Buffer b = host_.alloc_on_node(64 * sim::kMiB, 5);
  EXPECT_EQ(host_.node_free_bytes(5), before - 64 * sim::kMiB);
  EXPECT_EQ(b.home(), 5);
  EXPECT_FALSE(b.interleaved());
  EXPECT_EQ(host_.stats().node(5).numa_hit, 1u);
  host_.free(b);
  EXPECT_EQ(host_.node_free_bytes(5), before);
  EXPECT_EQ(b.size, 0u);
}

TEST_F(HostTest, AllocOnFullNodeThrows) {
  EXPECT_THROW(host_.alloc_on_node(8 * sim::kGiB, 2), std::bad_alloc);
}

TEST_F(HostTest, LocalPreferredFallsBackWhenFull) {
  // Fill node 3, then a local-preferred allocation from node 3 must land
  // elsewhere and count as a miss + foreign.
  Buffer fill = host_.alloc_on_node(host_.node_free_bytes(3), 3);
  Buffer b = host_.alloc_local(16 * sim::kMiB, 3);
  EXPECT_NE(b.home(), 3);
  EXPECT_EQ(host_.stats().node(3).numa_foreign, 1u);
  EXPECT_EQ(host_.stats().node(b.home()).numa_miss, 1u);
  host_.free(b);
  host_.free(fill);
}

TEST_F(HostTest, InterleaveSpreadsAcrossAllNodes) {
  Buffer b = host_.alloc_interleaved(8 * sim::kMiB);
  EXPECT_TRUE(b.interleaved());
  EXPECT_EQ(b.placement.size(), 8u);
  sim::Bytes total = 0;
  for (const auto& [node, bytes] : b.placement) {
    EXPECT_EQ(bytes, sim::kMiB);
    EXPECT_EQ(host_.stats().node(node).interleave_hit, 1u);
    total += bytes;
  }
  EXPECT_EQ(total, b.size);
  host_.free(b);
}

TEST_F(HostTest, InterleaveOverSubsetWithRemainder) {
  const std::vector<NodeId> nodes{2, 5};
  Buffer b = host_.alloc_interleaved(3 * sim::kMiB + 1, nodes);
  ASSERT_EQ(b.placement.size(), 2u);
  EXPECT_EQ(b.placement[0].first, 2);
  EXPECT_EQ(b.placement[1].first, 5);
  EXPECT_EQ(b.placement[0].second + b.placement[1].second, b.size);
  host_.free(b);
}

TEST_F(HostTest, PolicyBindUsesFirstNodeWithRoom) {
  const Policy p = parse_numactl("--membind=2,4");
  Buffer b = host_.alloc_with_policy(32 * sim::kMiB, p, /*running=*/0);
  EXPECT_EQ(b.home(), 2);
  host_.free(b);
}

TEST_F(HostTest, PolicyBindFailsHardWhenSetIsFull) {
  Buffer fill = host_.alloc_on_node(host_.node_free_bytes(2), 2);
  const Policy p = parse_numactl("--membind=2");
  EXPECT_THROW(host_.alloc_with_policy(16 * sim::kMiB, p, 0),
               std::bad_alloc);
  host_.free(fill);
}

TEST_F(HostTest, PolicyPreferredFallsBackSoftly) {
  Buffer fill = host_.alloc_on_node(host_.node_free_bytes(2), 2);
  const Policy p = parse_numactl("--preferred=2");
  Buffer b = host_.alloc_with_policy(16 * sim::kMiB, p, 0);
  EXPECT_NE(b.home(), 2);
  host_.free(b);
  host_.free(fill);
}

TEST_F(HostTest, PolicyLocalFollowsCpuBind) {
  const Policy p = parse_numactl("--cpunodebind=6 --localalloc");
  Buffer b = host_.alloc_with_policy(16 * sim::kMiB, p, /*running=*/1);
  EXPECT_EQ(b.home(), 6);
  host_.free(b);
}

TEST_F(HostTest, HardwareReportShowsNode0Residency) {
  const std::string report = host_.hardware_report();
  EXPECT_NE(report.find("available: 8 nodes (0-7)"), std::string::npos);
  EXPECT_NE(report.find("node 0 free: 1536 MB"), std::string::npos);
  EXPECT_NE(report.find("node 7 free: 3993 MB"), std::string::npos);
  // Node-major core numbering: node 7 owns cores 28-31.
  EXPECT_NE(report.find("node 7 cpus: 28 29 30 31"), std::string::npos);
}

TEST(HwlocView, ShowsHierarchyButNotWiring) {
  const auto topo = topo::dl585_g7();
  const std::string view = render_hwloc(topo);
  EXPECT_NE(view.find("Package P#3"), std::string::npos);
  EXPECT_NE(view.find("NUMANode N#7"), std::string::npos);
  EXPECT_NE(view.find("HostBridge"), std::string::npos);
  // hwloc's blind spot, stated explicitly (§II-B).
  EXPECT_NE(view.find("interconnect wiring is not part of this view"),
            std::string::npos);
  const std::string wiring = render_interconnect(topo);
  EXPECT_NE(wiring.find("6 <-> 7"), std::string::npos);
}

TEST(BufferHome, TiesResolveToLowestNode) {
  Buffer b;
  b.size = 2;
  b.placement = {{5, 1}, {3, 1}};
  EXPECT_EQ(b.home(), 3);
}

}  // namespace
}  // namespace numaio::nm
