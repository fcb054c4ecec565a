// Rate tracing and the paper's stability claim ("the bandwidth
// performance is stable over the whole data transfer process", §V-B).
#include <gtest/gtest.h>

#include "simcore/fluid_sim.h"

namespace numaio::sim {
namespace {

TEST(RateTrace, SteadyTransferHasOneSegmentAndZeroCv) {
  FlowSolver solver;
  const auto link = solver.add_resource(8.0);
  FluidSimulation fluid(solver);
  const auto id = fluid.start_transfer({{link, 1.0}}, 1000);
  fluid.run();
  ASSERT_EQ(fluid.trace(id).size(), 1u);
  EXPECT_DOUBLE_EQ(fluid.trace(id)[0].rate, 8.0);
  EXPECT_DOUBLE_EQ(fluid.trace(id)[0].duration, 1000.0);
  const auto stability = fluid.rate_stability(id);
  EXPECT_DOUBLE_EQ(stability.mean, 8.0);
  EXPECT_DOUBLE_EQ(stability.cv, 0.0);
}

TEST(RateTrace, RateChangeCreatesSegments) {
  FlowSolver solver;
  const auto link = solver.add_resource(8.0);
  FluidSimulation fluid(solver);
  const auto lng = fluid.start_transfer({{link, 1.0}}, 1500);
  fluid.start_transfer({{link, 1.0}}, 500);
  fluid.run();
  // Long flow: 4 Gbps while sharing, 8 Gbps alone.
  ASSERT_EQ(fluid.trace(lng).size(), 2u);
  EXPECT_DOUBLE_EQ(fluid.trace(lng)[0].rate, 4.0);
  EXPECT_DOUBLE_EQ(fluid.trace(lng)[1].rate, 8.0);
  const auto stability = fluid.rate_stability(lng);
  EXPECT_GT(stability.cv, 0.2);
  EXPECT_NEAR(stability.mean, 4.0 * 0.5 + 8.0 * 0.5, 1e-9);
}

TEST(RateTrace, SegmentsWithEqualRateMerge) {
  FlowSolver solver;
  const auto link = solver.add_resource(8.0);
  FluidSimulation fluid(solver);
  const auto a = fluid.start_transfer({{link, 1.0}}, 1000);
  // An arrival on a different resource re-solves but does not change a's
  // rate: the trace must not fragment.
  const auto other = solver.add_resource(4.0);
  fluid.start_transfer_at(200.0, {{other, 1.0}}, 100);
  fluid.run();
  EXPECT_EQ(fluid.trace(a).size(), 1u);
}

TEST(RateTrace, TraceDurationsSumToLifetime) {
  FlowSolver solver;
  const auto link = solver.add_resource(10.0);
  FluidSimulation fluid(solver);
  const auto a = fluid.start_transfer({{link, 1.0}}, 5000);
  fluid.start_transfer_at(1000.0, {{link, 1.0}}, 1000);
  fluid.start_transfer_at(2000.0, {{link, 1.0}}, 1000);
  fluid.run();
  double total = 0.0;
  for (const auto& seg : fluid.trace(a)) total += seg.duration;
  EXPECT_NEAR(total, fluid.stats(a).end - fluid.stats(a).start, 1e-6);
}

}  // namespace
}  // namespace numaio::sim
