#include "topo/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "topo/presets.h"

namespace numaio::topo {
namespace {

std::vector<NodeSpec> two_nodes() {
  return {NodeSpec{0, 4, 4.0, false}, NodeSpec{0, 4, 4.0, false}};
}

TEST(Topology, BuildsMinimalPair) {
  auto t = Topology::build("pair", two_nodes(),
                           {LinkSpec{0, 1, 16, 16, 40.0}});
  EXPECT_EQ(t.num_nodes(), 2);
  EXPECT_TRUE(t.adjacent(0, 1));
  EXPECT_TRUE(t.adjacent(1, 0));
  EXPECT_EQ(t.name(), "pair");
  EXPECT_EQ(t.total_cores(), 8);
}

TEST(Topology, RejectsEmptyNodeList) {
  EXPECT_THROW(Topology::build("x", {}, {}), std::invalid_argument);
}

TEST(Topology, RejectsSelfLink) {
  EXPECT_THROW(
      Topology::build("x", two_nodes(), {LinkSpec{0, 0, 16, 16, 40.0}}),
      std::invalid_argument);
}

TEST(Topology, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(
      Topology::build("x", two_nodes(), {LinkSpec{0, 5, 16, 16, 40.0}}),
      std::invalid_argument);
}

TEST(Topology, RejectsDuplicateLink) {
  EXPECT_THROW(Topology::build("x", two_nodes(),
                               {LinkSpec{0, 1, 16, 16, 40.0},
                                LinkSpec{1, 0, 8, 8, 40.0}}),
               std::invalid_argument);
}

TEST(Topology, RejectsDisconnectedGraph) {
  std::vector<NodeSpec> nodes(3, NodeSpec{0, 4, 4.0, false});
  EXPECT_THROW(
      Topology::build("x", nodes, {LinkSpec{0, 1, 16, 16, 40.0}}),
      std::invalid_argument);
}

TEST(Topology, RejectsZeroLatencyLink) {
  EXPECT_THROW(
      Topology::build("x", two_nodes(), {LinkSpec{0, 1, 16, 16, 0.0}}),
      std::invalid_argument);
}

TEST(Topology, RejectsPortBudgetViolation) {
  // Five 16-bit links on node 0 exceed the 4-port G34 budget.
  std::vector<NodeSpec> nodes(6, NodeSpec{0, 4, 4.0, false});
  std::vector<LinkSpec> links;
  for (NodeId v = 1; v <= 5; ++v) links.push_back(LinkSpec{0, v, 16, 16, 40.0});
  EXPECT_THROW(Topology::build("x", nodes, links), std::invalid_argument);
}

TEST(Topology, IoHubConsumesAPort) {
  // Four 16-bit links are fine without a hub, too many with one.
  std::vector<NodeSpec> nodes(5, NodeSpec{0, 4, 4.0, false});
  std::vector<LinkSpec> links;
  for (NodeId v = 1; v <= 4; ++v) links.push_back(LinkSpec{0, v, 16, 16, 40.0});
  // Also connect the leaves so the graph stays connected in both variants.
  EXPECT_NO_THROW(Topology::build("ok", nodes, links));
  nodes[0].io_hub = true;
  EXPECT_THROW(Topology::build("x", nodes, links), std::invalid_argument);
}

TEST(Topology, DirectionWidths) {
  auto t = Topology::build("pair", two_nodes(),
                           {LinkSpec{0, 1, 16, 8, 40.0}});
  EXPECT_DOUBLE_EQ(t.direction_width(0, 1), 16.0);
  EXPECT_DOUBLE_EQ(t.direction_width(1, 0), 8.0);
  EXPECT_DOUBLE_EQ(t.direction_width(0, 0), 0.0);
}

TEST(Topology, PackagePeersAndNeighbors) {
  const Topology t = magny_cours_4p('a');
  EXPECT_EQ(t.num_packages(), 4);
  EXPECT_EQ(t.package_peers(7), std::vector<NodeId>{6});
}

TEST(Topology, MagnyCoursVariantAMatchesPaperExample) {
  // §II-A: node 7 is local to itself, neighbor to 6, one hop from
  // {0,2,4}, two hops from {1,3,5}.
  const Topology t = magny_cours_4p('a');
  EXPECT_EQ(t.neighbors(7), (std::vector<NodeId>{0, 2, 4, 6}));
}

TEST(Topology, AllMagnyCoursVariantsBuildWithEightNodes) {
  for (char v : {'a', 'b', 'c', 'd'}) {
    const Topology t = magny_cours_4p(v);
    EXPECT_EQ(t.num_nodes(), 8) << v;
    EXPECT_EQ(t.num_packages(), 4) << v;
    EXPECT_EQ(t.total_cores(), 32) << v;
  }
}

TEST(Topology, VariantsAreStructurallyDistinct) {
  // Compare adjacency fingerprints pairwise.
  auto fingerprint = [](const Topology& t) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (const auto& l : t.links()) {
      edges.emplace_back(std::min(l.a, l.b), std::max(l.a, l.b));
    }
    std::sort(edges.begin(), edges.end());
    return edges;
  };
  const auto fa = fingerprint(magny_cours_4p('a'));
  const auto fb = fingerprint(magny_cours_4p('b'));
  const auto fc = fingerprint(magny_cours_4p('c'));
  const auto fd = fingerprint(magny_cours_4p('d'));
  EXPECT_NE(fa, fb);
  EXPECT_NE(fa, fc);
  EXPECT_NE(fa, fd);
  EXPECT_NE(fb, fc);
  EXPECT_NE(fb, fd);
  EXPECT_NE(fc, fd);
}

TEST(Topology, UnknownVariantThrows) {
  EXPECT_THROW(magny_cours_4p('z'), std::invalid_argument);
}

TEST(Topology, Dl585HasIoHubsOnNodes1And7) {
  const Topology t = dl585_g7();
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    EXPECT_EQ(t.node(v).io_hub, v == 1 || v == 7) << v;
  }
  EXPECT_EQ(t.name(), "hp-dl585-g7");
}

TEST(Topology, Dl585MatchesTableII) {
  // Table II: 32 cores / 8 NUMA nodes, 32 GB total.
  const Topology t = dl585_g7();
  EXPECT_EQ(t.total_cores(), 32);
  EXPECT_EQ(t.num_nodes(), 8);
  double mem = 0.0;
  for (const auto& n : t.nodes()) mem += n.memory_gb;
  EXPECT_DOUBLE_EQ(mem, 32.0);
}

}  // namespace
}  // namespace numaio::topo
