#include "topo/latency.h"

#include <gtest/gtest.h>

#include "topo/presets.h"

namespace numaio::topo {
namespace {

TEST(Latency, LocalAccessIsTheBase) {
  const Topology t = magny_cours_4p('a');
  const Routing r(t, Routing::Metric::kHops);
  const LatencyModel m(r, LatencyParams{100.0, 10.0});
  EXPECT_DOUBLE_EQ(m.access_latency(3, 3), 100.0);
}

TEST(Latency, RemoteAddsPathAndRouterCosts) {
  const Topology t = magny_cours_4p('a');  // intra 50, inter 120
  const Routing r(t, Routing::Metric::kHops);
  const LatencyModel m(r, LatencyParams{100.0, 10.0});
  EXPECT_DOUBLE_EQ(m.access_latency(7, 6), 100.0 + 50.0 + 10.0);
  EXPECT_DOUBLE_EQ(m.access_latency(7, 1), 100.0 + 170.0 + 20.0);
}

TEST(Latency, SingleNodeFactorIsOne) {
  const auto t = Topology::build(
      "solo", {NodeSpec{0, 4, 4.0, false}}, {});
  const Routing r(t, Routing::Metric::kHops);
  const LatencyModel m(r, LatencyParams{});
  EXPECT_DOUBLE_EQ(m.numa_factor(), 1.0);
}

TEST(Latency, MaxFactorAtLeastMeanFactor) {
  const Topology t = magny_cours_4p('c');
  const Routing r(t, Routing::Metric::kHops);
  const LatencyModel m(r, LatencyParams{100.0, 15.0});
  EXPECT_GE(m.max_numa_factor(), m.numa_factor());
}

// --- Table I: NUMA factors of the four server configurations -------------

struct Table1Case {
  int index;
  const char* label;
};

class Table1Factors : public ::testing::TestWithParam<int> {};

TEST_P(Table1Factors, MatchesPublishedFactor) {
  const auto presets = table1_presets();
  const ServerPreset& preset = presets[static_cast<std::size_t>(GetParam())];
  const Routing routing(preset.topo, Routing::Metric::kLatency);
  const LatencyModel model(routing, preset.latency);
  EXPECT_NEAR(model.numa_factor(), preset.paper_numa_factor,
              0.05 * preset.paper_numa_factor)
      << preset.label;
}

INSTANTIATE_TEST_SUITE_P(Rows, Table1Factors, ::testing::Values(0, 1, 2, 3));

TEST(Latency, Table1FactorsAreMonotone) {
  // Table I's point: bigger hosts suffer bigger NUMA factors.
  const auto presets = table1_presets();
  double prev = 0.0;
  for (const auto& p : presets) {
    const Routing r(p.topo, Routing::Metric::kLatency);
    const double f = LatencyModel(r, p.latency).numa_factor();
    EXPECT_GT(f, prev) << p.label;
    prev = f;
  }
}

TEST(Latency, Table1PresetLabels) {
  const auto presets = table1_presets();
  ASSERT_EQ(presets.size(), 4u);
  EXPECT_EQ(presets[0].label, "Intel 4 sockets/4 nodes");
  EXPECT_EQ(presets[3].label, "HP blade system 32 nodes");
  EXPECT_EQ(presets[3].topo.num_nodes(), 32);
}

}  // namespace
}  // namespace numaio::topo
