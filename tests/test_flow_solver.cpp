#include "simcore/flow_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "solver_paths.h"

namespace numaio::sim {
namespace {

using test::add_flow_over;

TEST(FlowSolver, SingleFlowTakesFullCapacity) {
  FlowSolver s;
  const ResourceId r = s.add_resource(10.0);
  const FlowId f = add_flow_over(s, {r});
  EXPECT_DOUBLE_EQ(s.solve()[f], 10.0);
}

TEST(FlowSolver, EqualSharingAmongPeers) {
  FlowSolver s;
  const ResourceId r = s.add_resource(12.0);
  const FlowId a = add_flow_over(s, {r});
  const FlowId b = add_flow_over(s, {r});
  const FlowId c = add_flow_over(s, {r});
  const auto rates = s.solve();
  EXPECT_DOUBLE_EQ(rates[a], 4.0);
  EXPECT_DOUBLE_EQ(rates[b], 4.0);
  EXPECT_DOUBLE_EQ(rates[c], 4.0);
}

TEST(FlowSolver, FlowCapFreesCapacityForOthers) {
  FlowSolver s;
  const ResourceId r = s.add_resource(12.0);
  const FlowId a = add_flow_over(s, {r}, /*rate_cap=*/2.0);
  const FlowId b = add_flow_over(s, {r});
  const auto rates = s.solve();
  EXPECT_DOUBLE_EQ(rates[a], 2.0);
  EXPECT_DOUBLE_EQ(rates[b], 10.0);  // max-min: leftover goes to b
}

TEST(FlowSolver, BottleneckIsTheNarrowestResource) {
  FlowSolver s;
  const ResourceId wide = s.add_resource(100.0);
  const ResourceId narrow = s.add_resource(5.0);
  const FlowId f = add_flow_over(s, {wide, narrow});
  EXPECT_DOUBLE_EQ(s.solve()[f], 5.0);
}

TEST(FlowSolver, MultiHopFlowsShareEveryLink) {
  // Classic max-min example: one long flow over two links, one short flow
  // on each link. The long flow gets the min fair share.
  FlowSolver s;
  const ResourceId l1 = s.add_resource(10.0);
  const ResourceId l2 = s.add_resource(10.0);
  const FlowId lng = add_flow_over(s, {l1, l2});
  const FlowId s1 = add_flow_over(s, {l1});
  const FlowId s2 = add_flow_over(s, {l2});
  const auto rates = s.solve();
  EXPECT_DOUBLE_EQ(rates[lng], 5.0);
  EXPECT_DOUBLE_EQ(rates[s1], 5.0);
  EXPECT_DOUBLE_EQ(rates[s2], 5.0);
}

TEST(FlowSolver, DuplicateResourceCountsTwice) {
  // A copy whose both legs cross the same memory controller consumes 2x.
  FlowSolver s;
  const ResourceId mc = s.add_resource(10.0);
  const FlowId f = add_flow_over(s, {mc, mc});
  EXPECT_DOUBLE_EQ(s.solve()[f], 5.0);
}

TEST(FlowSolver, WeightedUsageScalesConsumption) {
  // A flow consuming 0.5 units per Gbps can run at twice the capacity.
  FlowSolver s;
  const ResourceId cpu = s.add_resource(10.0);
  const FlowId f = s.add_flow({{cpu, 0.5}});
  EXPECT_DOUBLE_EQ(s.solve()[f], 20.0);
}

TEST(FlowSolver, MixedWeightsShareProportionally) {
  FlowSolver s;
  const ResourceId r = s.add_resource(9.0);
  const FlowId heavy = s.add_flow({{r, 2.0}});
  const FlowId light = s.add_flow({{r, 1.0}});
  const auto rates = s.solve();
  // Equal-rate filling: both reach x where 2x + x = 9 -> x = 3.
  EXPECT_DOUBLE_EQ(rates[heavy], 3.0);
  EXPECT_DOUBLE_EQ(rates[light], 3.0);
}

TEST(FlowSolver, SameResourceTwiceWithDifferentWeightsAccumulates) {
  // App work and IRQ work both landing on one node's CPU.
  FlowSolver s;
  const ResourceId cpu = s.add_resource(28.0);
  const FlowId f = s.add_flow({{cpu, 1.0}, {cpu, 0.4}});
  EXPECT_NEAR(s.solve()[f], 28.0 / 1.4, 1e-9);
}

TEST(FlowSolver, RemoveFlowRestoresCapacity) {
  FlowSolver s;
  const ResourceId r = s.add_resource(10.0);
  const FlowId a = add_flow_over(s, {r});
  const FlowId b = add_flow_over(s, {r});
  EXPECT_DOUBLE_EQ(s.solve()[a], 5.0);
  s.remove_flow(b);
  EXPECT_EQ(s.remove_flow(b).code, StatusCode::kUsage);  // b is dead
  const auto rates = s.solve();
  EXPECT_DOUBLE_EQ(rates[a], 10.0);
  EXPECT_DOUBLE_EQ(rates[b], 0.0);
}

TEST(FlowSolver, SetCapacityTakesEffect) {
  FlowSolver s;
  const ResourceId r = s.add_resource(10.0);
  const FlowId f = add_flow_over(s, {r});
  s.set_capacity(r, 4.0);
  EXPECT_DOUBLE_EQ(s.solve()[f], 4.0);
  EXPECT_DOUBLE_EQ(s.capacity(r), 4.0);
}

TEST(FlowSolver, UnlimitedResourceNeverBinds) {
  FlowSolver s;
  const ResourceId inf = s.add_resource(kUnlimited);
  const FlowId f = add_flow_over(s, {inf}, 7.5);
  EXPECT_DOUBLE_EQ(s.solve()[f], 7.5);
  EXPECT_DOUBLE_EQ(s.utilization(inf), 0.0);
}

TEST(FlowSolver, ZeroCapacityResourceStarvesFlows) {
  FlowSolver s;
  const ResourceId dead = s.add_resource(0.0);
  const FlowId f = add_flow_over(s, {dead});
  EXPECT_DOUBLE_EQ(s.solve()[f], 0.0);
}

TEST(FlowSolver, AggregateRateSumsLiveFlows) {
  FlowSolver s;
  const ResourceId r = s.add_resource(10.0);
  add_flow_over(s, {r});
  add_flow_over(s, {r}, 1.0);
  EXPECT_DOUBLE_EQ(s.aggregate_rate(), 10.0);
}

TEST(FlowSolver, UtilizationReflectsWeightedLoad) {
  FlowSolver s;
  const ResourceId r = s.add_resource(10.0);
  s.add_flow({{r, 2.0}}, 2.0);  // 2 Gbps * weight 2 = 4 units of 10
  EXPECT_NEAR(s.utilization(r), 0.4, 1e-9);
}

TEST(FlowSolver, SolveIsIdempotent) {
  FlowSolver s;
  const ResourceId r = s.add_resource(10.0);
  const FlowId a = add_flow_over(s, {r});
  const auto r1 = s.solve();
  const auto r2 = s.solve();
  EXPECT_EQ(r1[a], r2[a]);
}

TEST(FlowSolver, FrozenWeightResidueDoesNotStallIndependentFlows) {
  // Regression: four flows with weight 0.0485 on one engine leave a
  // ~1e-17 weight residue when they freeze; that residue must not make
  // the saturated engine emit a bogus delta and stall the *other*
  // engine's flows below their fair level (found via the staging
  // pipeline: SSD flushes froze at the TCP flows' level).
  FlowSolver s;
  const ResourceId e = s.add_resource(1.0);
  const ResourceId f = s.add_resource(1.0);
  std::vector<FlowId> tcp, ssd;
  for (int i = 0; i < 4; ++i) tcp.push_back(s.add_flow({{e, 0.0485}}, 5.829));
  for (int i = 0; i < 2; ++i) ssd.push_back(s.add_flow({{f, 0.0689}}, 8.48));
  const auto rates = s.solve();
  EXPECT_NEAR(rates[tcp[0]], 1.0 / (4 * 0.0485), 1e-9);
  EXPECT_NEAR(rates[ssd[0]], 1.0 / (2 * 0.0689), 1e-9);
  EXPECT_NEAR(s.utilization(f), 1.0, 1e-9);
}

// Property sweep: with n identical flows over one resource, each gets
// capacity/n and the sum saturates the resource exactly.
class FairShareSweep : public ::testing::TestWithParam<int> {};

TEST_P(FairShareSweep, EqualSplitSaturates) {
  const int n = GetParam();
  FlowSolver s;
  const ResourceId r = s.add_resource(33.0);
  std::vector<FlowId> flows;
  for (int i = 0; i < n; ++i) flows.push_back(add_flow_over(s, {r}));
  const auto rates = s.solve();
  double sum = 0.0;
  for (const FlowId f : flows) {
    EXPECT_NEAR(rates[f], 33.0 / n, 1e-9);
    sum += rates[f];
  }
  EXPECT_NEAR(sum, 33.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, FairShareSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

// Property sweep: max-min allocations never exceed flow caps or resource
// capacities, for a mixed scenario parameterized by the bottleneck size.
class BottleneckSweep : public ::testing::TestWithParam<double> {};

TEST_P(BottleneckSweep, FeasibilityInvariants) {
  const double cap = GetParam();
  FlowSolver s;
  const ResourceId a = s.add_resource(cap);
  const ResourceId b = s.add_resource(20.0);
  const FlowId f1 = add_flow_over(s, {a, b}, 7.0);
  const FlowId f2 = add_flow_over(s, {a});
  const FlowId f3 = add_flow_over(s, {b});
  const auto rates = s.solve();
  EXPECT_LE(rates[f1], 7.0 + 1e-9);
  EXPECT_LE(rates[f1] + rates[f2], cap + 1e-9);
  EXPECT_LE(rates[f1] + rates[f3], 20.0 + 1e-9);
  // Work conservation: at least one constraint is tight.
  const bool some_tight =
      std::abs(rates[f1] - 7.0) < 1e-6 ||
      std::abs(rates[f1] + rates[f2] - cap) < 1e-6 ||
      std::abs(rates[f1] + rates[f3] - 20.0) < 1e-6;
  EXPECT_TRUE(some_tight);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BottleneckSweep,
                         ::testing::Values(1.0, 5.0, 10.0, 14.0, 40.0));

}  // namespace
}  // namespace numaio::sim
