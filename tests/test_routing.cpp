#include "topo/routing.h"

#include <gtest/gtest.h>

#include "topo/presets.h"

namespace numaio::topo {
namespace {

TEST(Routing, SelfRouteIsTrivial) {
  const Topology t = magny_cours_4p('a');
  const Routing r(t, Routing::Metric::kHops);
  EXPECT_EQ(r.hop_distance(3, 3), 0);
  EXPECT_EQ(r.route(3, 3).nodes, std::vector<NodeId>{3});
  EXPECT_DOUBLE_EQ(r.path_latency(3, 3), 0.0);
}

TEST(Routing, PaperExampleHopDistancesVariantA) {
  // §II-A for node 7 on layout (a): 6 at 1 hop (intra), {0,2,4} at 1 hop,
  // {1,3,5} at 2 hops.
  const Topology t = magny_cours_4p('a');
  const Routing r(t, Routing::Metric::kHops);
  EXPECT_EQ(r.hop_distance(7, 6), 1);
  for (NodeId v : {0, 2, 4}) EXPECT_EQ(r.hop_distance(7, v), 1) << v;
  for (NodeId v : {1, 3, 5}) EXPECT_EQ(r.hop_distance(7, v), 2) << v;
}

TEST(Routing, HopMatrixIsSymmetricForUndirectedLinks) {
  const Topology t = magny_cours_4p('b');
  const Routing r(t, Routing::Metric::kHops);
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    for (NodeId j = 0; j < t.num_nodes(); ++j) {
      EXPECT_EQ(r.hop_distance(i, j), r.hop_distance(j, i));
    }
  }
}

TEST(Routing, DeterministicTieBreakPrefersSmallestPath) {
  // Square: 0-1, 1-3, 0-2, 2-3. Routes 0->3 via 1 or 2 tie on hops;
  // lexicographic tie-break must pick {0,1,3}.
  std::vector<NodeSpec> nodes(4, NodeSpec{0, 4, 4.0, false});
  const auto t = Topology::build("square", nodes,
                                 {LinkSpec{0, 1, 8, 8, 40.0},
                                  LinkSpec{1, 3, 8, 8, 40.0},
                                  LinkSpec{0, 2, 8, 8, 40.0},
                                  LinkSpec{2, 3, 8, 8, 40.0}});
  const Routing r(t, Routing::Metric::kHops);
  EXPECT_EQ(r.route(0, 3).nodes, (std::vector<NodeId>{0, 1, 3}));
}

TEST(Routing, LatencyMetricPrefersFastDetour) {
  // 0-1 direct but slow (200 ns); 0-2-1 fast (40+40).
  std::vector<NodeSpec> nodes(3, NodeSpec{0, 4, 4.0, false});
  const auto t = Topology::build("detour", nodes,
                                 {LinkSpec{0, 1, 8, 8, 200.0},
                                  LinkSpec{0, 2, 8, 8, 40.0},
                                  LinkSpec{2, 1, 8, 8, 40.0}});
  const Routing hops(t, Routing::Metric::kHops);
  EXPECT_EQ(hops.route(0, 1).hops(), 1);
  const Routing lat(t, Routing::Metric::kLatency);
  EXPECT_EQ(lat.route(0, 1).nodes, (std::vector<NodeId>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(lat.path_latency(0, 1), 80.0);
}

TEST(Routing, DiameterOfVariants) {
  EXPECT_EQ(Routing(magny_cours_4p('a'), Routing::Metric::kHops).diameter(),
            2);
  // Hub layout: odd -> odd of another package takes 3 hops.
  EXPECT_EQ(Routing(magny_cours_4p('c'), Routing::Metric::kHops).diameter(),
            3);
}

TEST(Routing, MeanRemoteHopsVariantA) {
  // From every node: 4 destinations at 1 hop, 3 at 2 hops -> 10/7.
  const Topology t = magny_cours_4p('a');  // Routing keeps a reference.
  const Routing r(t, Routing::Metric::kHops);
  EXPECT_NEAR(r.mean_remote_hops(), 10.0 / 7.0, 1e-9);
}

TEST(Routing, PathLatencySumsLinkLatencies) {
  const Topology t = magny_cours_4p('a');  // intra 50 ns, inter 120 ns
  const Routing r(t, Routing::Metric::kHops);
  EXPECT_DOUBLE_EQ(r.path_latency(7, 6), 50.0);
  EXPECT_DOUBLE_EQ(r.path_latency(7, 0), 120.0);
  // 7 -> 1: inter + intra.
  EXPECT_DOUBLE_EQ(r.path_latency(7, 1), 170.0);
}

// Property sweep over all variants: routes are well-formed (consecutive
// nodes adjacent, no repeats) and distances obey the triangle inequality.
class RouteInvariants : public ::testing::TestWithParam<char> {};

TEST_P(RouteInvariants, WellFormedRoutesAndTriangleInequality) {
  const Topology t = magny_cours_4p(GetParam());
  const Routing r(t, Routing::Metric::kHops);
  const int n = t.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      const Route& route = r.route(s, d);
      ASSERT_FALSE(route.nodes.empty());
      EXPECT_EQ(route.nodes.front(), s);
      EXPECT_EQ(route.nodes.back(), d);
      for (std::size_t i = 0; i + 1 < route.nodes.size(); ++i) {
        EXPECT_TRUE(t.adjacent(route.nodes[i], route.nodes[i + 1]));
      }
      for (NodeId via = 0; via < n; ++via) {
        EXPECT_LE(r.hop_distance(s, d),
                  r.hop_distance(s, via) + r.hop_distance(via, d));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, RouteInvariants,
                         ::testing::Values('a', 'b', 'c', 'd'));

}  // namespace
}  // namespace numaio::topo
