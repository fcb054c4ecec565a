#include "simcore/fluid_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "simcore/rng.h"

namespace numaio::sim {
namespace {

TEST(FluidSim, SingleTransferTiming) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);  // 8 Gbps
  FluidSimulation fluid(solver);
  // 1000 bytes at 8 Gbps = 1000 ns.
  const auto id = fluid.start_transfer({{link, 1.0}}, 1000);
  fluid.run();
  EXPECT_DOUBLE_EQ(fluid.stats(id).end, 1000.0);
  EXPECT_DOUBLE_EQ(fluid.stats(id).avg_rate(), 8.0);
  EXPECT_TRUE(fluid.stats(id).done);
}

TEST(FluidSim, TwoEqualTransfersShareAndFinishTogether) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  const auto a = fluid.start_transfer({{link, 1.0}}, 1000);
  const auto b = fluid.start_transfer({{link, 1.0}}, 1000);
  fluid.run();
  EXPECT_DOUBLE_EQ(fluid.stats(a).end, 2000.0);
  EXPECT_DOUBLE_EQ(fluid.stats(b).end, 2000.0);
}

TEST(FluidSim, ShortTransferLeavesThenLongSpeedsUp) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  const auto lng = fluid.start_transfer({{link, 1.0}}, 1500);
  const auto sht = fluid.start_transfer({{link, 1.0}}, 500);
  fluid.run();
  // Phase 1: both at 4 Gbps until short (500 B = 4000 bits) ends at
  // t=1000. Long has 8000 bits left, finishes at 1000 + 8000/8 = 2000.
  EXPECT_DOUBLE_EQ(fluid.stats(sht).end, 1000.0);
  EXPECT_DOUBLE_EQ(fluid.stats(lng).end, 2000.0);
}

TEST(FluidSim, DelayedStartWaits) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  const auto id = fluid.start_transfer_at(5000.0, {{link, 1.0}}, 1000);
  fluid.run();
  EXPECT_DOUBLE_EQ(fluid.stats(id).start, 5000.0);
  EXPECT_DOUBLE_EQ(fluid.stats(id).end, 6000.0);
}

TEST(FluidSim, ArrivalPreemptsAndReshares) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  const auto first = fluid.start_transfer({{link, 1.0}}, 2000);
  // Arrives at t=1000, when first has 8000 bits left.
  const auto second = fluid.start_transfer_at(1000.0, {{link, 1.0}}, 1000);
  fluid.run();
  // After t=1000 both run at 4 Gbps. First needs 2000 ns more -> 3000.
  // Second needs 8000 bits at 4 -> 2000 ns -> ends 3000 too.
  EXPECT_DOUBLE_EQ(fluid.stats(first).end, 3000.0);
  EXPECT_DOUBLE_EQ(fluid.stats(second).end, 3000.0);
}

TEST(FluidSim, RateCapHonored) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 100.0);
  FluidSimulation fluid(solver);
  const auto id = fluid.start_transfer({{link, 1.0}}, 1000, /*cap=*/4.0);
  fluid.run();
  EXPECT_DOUBLE_EQ(fluid.stats(id).avg_rate(), 4.0);
}

TEST(FluidSim, CompletionCallbackChainsTransfers) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  Ns second_end = 0.0;
  fluid.start_transfer({{link, 1.0}}, 1000, kUnlimited,
                       [&](FluidSimulation::TransferId, Ns) {
                         const auto next = fluid.start_transfer(
                             {{link, 1.0}}, 1000, kUnlimited,
                             [&](FluidSimulation::TransferId, Ns t) {
                               second_end = t;
                             });
                         (void)next;
                       });
  fluid.run();
  EXPECT_DOUBLE_EQ(second_end, 2000.0);
  EXPECT_EQ(fluid.transfer_count(), 2u);
}

TEST(FluidSim, AggregateRateOverMakespan) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  fluid.start_transfer({{link, 1.0}}, 1000);
  fluid.start_transfer({{link, 1.0}}, 1000);
  fluid.run();
  // 2000 bytes over 2000 ns = 8 Gbps.
  EXPECT_DOUBLE_EQ(fluid.aggregate_rate(), 8.0);
}

TEST(FluidSim, WeightedUsageTransfers) {
  FlowSolver solver;
  const ResourceId cpu = solver.add_resource("cpu", 14.0);
  FluidSimulation fluid(solver);
  // Weight 1.4/Gbps: effective 10 Gbps -> 1000 B in 800 ns.
  const auto id = fluid.start_transfer({{cpu, 1.4}}, 1000);
  fluid.run();
  EXPECT_NEAR(fluid.stats(id).end, 800.0, 1e-6);
}

// --- Control events and aborts ----------------------------------------------

TEST(FluidSim, SameInstantControlsRunInSchedulingOrder) {
  FlowSolver solver;
  FluidSimulation fluid(solver);
  std::vector<int> order;
  fluid.schedule_control(100.0, [&] { order.push_back(0); });
  fluid.schedule_control(50.0, [&] { order.push_back(-1); });
  fluid.schedule_control(100.0, [&] { order.push_back(1); });
  fluid.schedule_control(100.0, [&] { order.push_back(2); });
  EXPECT_EQ(fluid.run(), 100.0);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(FluidSim, SameInstantStartsAndControlsFireInSchedulingOrder) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  std::size_t before = 99;
  std::size_t after = 99;
  fluid.schedule_control(1000.0,
                         [&] { before = solver.live_flow_count(); });
  const auto id = fluid.start_transfer_at(1000.0, {{link, 1.0}}, 1000);
  fluid.schedule_control(1000.0, [&] { after = solver.live_flow_count(); });
  fluid.run();
  EXPECT_EQ(before, 0u);  // scheduled before the start: no flow yet
  EXPECT_EQ(after, 1u);   // scheduled after it: the flow has joined
  EXPECT_EQ(fluid.stats(id).start, 1000.0);
  EXPECT_EQ(fluid.stats(id).end, 2000.0);
}

TEST(FluidSim, TransferFinishingAtAControlInstantIsDoneWhenItRuns) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  const auto id = fluid.start_transfer({{link, 1.0}}, 1000);  // ends at 1000
  bool seen_done = false;
  fluid.schedule_control(1000.0, [&] {
    seen_done = fluid.stats(id).done;
    EXPECT_FALSE(fluid.abort_transfer(id));
  });
  fluid.run();
  EXPECT_TRUE(seen_done);
  EXPECT_FALSE(fluid.stats(id).aborted);
  EXPECT_EQ(fluid.stats(id).bytes_moved, 1000u);
}

TEST(FluidSim, ControlScheduledInThePastRunsAtTheCurrentInstant) {
  FlowSolver solver;
  FluidSimulation fluid(solver);
  Ns fired_at = -1.0;
  fluid.schedule_control(500.0, [&] {
    fluid.schedule_control(100.0, [&] { fired_at = fluid.now(); });
  });
  EXPECT_EQ(fluid.run(), 500.0);
  EXPECT_EQ(fired_at, 500.0);
}

TEST(FluidSim, AbortingAnActiveTransferBanksItsBytesAndSkipsTheCallback) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  bool completed = false;
  const auto id = fluid.start_transfer(
      {{link, 1.0}}, 1000, kUnlimited,
      [&](FluidSimulation::TransferId, Ns) { completed = true; });
  bool first = false;
  bool second = true;
  fluid.schedule_control(500.0, [&] {
    first = fluid.abort_transfer(id);
    second = fluid.abort_transfer(id);
  });
  EXPECT_EQ(fluid.run(), 500.0);
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_FALSE(completed);
  const FluidSimulation::TransferStats& st = fluid.stats(id);
  EXPECT_TRUE(st.done);
  EXPECT_TRUE(st.aborted);
  EXPECT_EQ(st.start, 0.0);
  EXPECT_EQ(st.end, 500.0);
  EXPECT_EQ(st.bytes_moved, 500u);  // half the payload at 8 Gbps
  EXPECT_EQ(solver.live_flow_count(), 0u);
}

TEST(FluidSim, AbortedDeferredTransferNeverStarts) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  bool completed = false;
  const auto id = fluid.start_transfer_at(
      5000.0, {{link, 1.0}}, 1000, kUnlimited,
      [&](FluidSimulation::TransferId, Ns) { completed = true; });
  std::size_t flows_seen = 99;
  fluid.schedule_control(100.0, [&] {
    EXPECT_TRUE(fluid.abort_transfer(id));
    EXPECT_FALSE(fluid.abort_transfer(id));
  });
  fluid.schedule_control(200.0,
                         [&] { flows_seen = solver.live_flow_count(); });
  EXPECT_EQ(fluid.run(), 200.0);  // never advances to the start at 5000
  EXPECT_EQ(flows_seen, 0u);
  EXPECT_EQ(solver.stats().solve_calls, 0u);  // no flow ever joined
  EXPECT_FALSE(completed);
  const FluidSimulation::TransferStats& st = fluid.stats(id);
  EXPECT_TRUE(st.done);
  EXPECT_TRUE(st.aborted);
  EXPECT_EQ(st.start, 100.0);
  EXPECT_EQ(st.end, 100.0);
  EXPECT_EQ(st.bytes_moved, 0u);
}

TEST(FluidSim, AbortingAFinishedTransferReturnsFalse) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  const auto id = fluid.start_transfer({{link, 1.0}}, 1000);
  fluid.run();
  EXPECT_FALSE(fluid.abort_transfer(id));
  EXPECT_FALSE(fluid.stats(id).aborted);
  EXPECT_EQ(fluid.stats(id).bytes_moved, 1000u);
}

TEST(FluidSim, RunReturnsTheTimeOfTheLastEvent) {
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 8.0);
  FluidSimulation fluid(solver);
  fluid.start_transfer({{link, 1.0}}, 1000);  // ends at 1000
  int fired = 0;
  fluid.schedule_control(3000.0, [&] { ++fired; });
  EXPECT_EQ(fluid.run(), 3000.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fluid.now(), 3000.0);
}

// Property sweep with random arrivals: total delivered bytes equal the
// sum of transfer sizes and every completion time is consistent with its
// average rate (work conservation under churn).
class FluidRandomArrivals : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FluidRandomArrivals, ByteAccounting) {
  Rng rng(GetParam());
  FlowSolver solver;
  std::vector<ResourceId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(solver.add_resource("l", rng.uniform(5.0, 30.0)));
  }
  FluidSimulation fluid(solver);
  std::vector<FluidSimulation::TransferId> ids;
  Ns clock = 0.0;
  for (int i = 0; i < 12; ++i) {
    clock += rng.uniform(0.0, 500.0);
    const Bytes size = 200 + rng.below(5000);
    std::vector<Usage> usages{{links[rng.below(3)], 1.0}};
    if (rng.uniform() < 0.5) usages.push_back({links[rng.below(3)], 1.0});
    ids.push_back(fluid.start_transfer_at(clock, usages, size));
  }
  fluid.run();
  for (const auto id : ids) {
    const auto& st = fluid.stats(id);
    ASSERT_TRUE(st.done);
    EXPECT_GT(st.end, st.start);
    // Trace integral equals the transfer size.
    double bits = 0.0;
    for (const auto& seg : fluid.trace(id)) bits += seg.duration * seg.rate;
    EXPECT_NEAR(bits, static_cast<double>(st.bytes) * 8.0, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidRandomArrivals,
                         ::testing::Values(3u, 17u, 99u, 12345u));

// Property sweep: n transfers over one link conserve work: makespan equals
// total bits / capacity regardless of n.
class FluidWorkConservation : public ::testing::TestWithParam<int> {};

TEST_P(FluidWorkConservation, MakespanMatchesTotalWork) {
  const int n = GetParam();
  FlowSolver solver;
  const ResourceId link = solver.add_resource("link", 10.0);
  FluidSimulation fluid(solver);
  for (int i = 0; i < n; ++i) {
    fluid.start_transfer({{link, 1.0}}, 500 * static_cast<Bytes>(i + 1));
  }
  const Ns end = fluid.run();
  Bytes total = 0;
  for (int i = 0; i < n; ++i) total += 500 * static_cast<Bytes>(i + 1);
  EXPECT_NEAR(end, static_cast<double>(total) * 8.0 / 10.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Counts, FluidWorkConservation,
                         ::testing::Values(1, 2, 5, 13));

// Same-instant bursts on the one completion path. The workload starts
// equal-size clusters on shared links, so each cluster's members share a
// rate from the start and finish at one instant. Completion callbacks
// fire in time order and, within an instant, in ascending id order, and
// every transfer moves exactly its payload.
class FluidBurstCompletions
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidBurstCompletions, ClustersFinishTogetherInIdOrder) {
  Rng rng(GetParam());
  FlowSolver solver;
  std::vector<ResourceId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(solver.add_resource("l", rng.uniform(5.0, 30.0)));
  }
  FluidSimulation fluid(solver);
  std::vector<std::vector<FluidSimulation::TransferId>> clusters;
  std::vector<std::pair<Ns, FluidSimulation::TransferId>> fired;
  Ns clock = 0.0;
  for (int cluster = 0; cluster < 6; ++cluster) {
    clock += rng.uniform(0.0, 800.0);
    const std::uint64_t width = 1 + rng.below(3);
    const Bytes size = 500 + rng.below(4000);
    const ResourceId link = links[rng.below(3)];
    clusters.emplace_back();
    for (std::uint64_t w = 0; w < width; ++w) {
      clusters.back().push_back(fluid.start_transfer_at(
          clock, {{link, 1.0}}, size, kUnlimited,
          [&fired](FluidSimulation::TransferId id, Ns at) {
            fired.emplace_back(at, id);
          }));
    }
  }
  const Ns makespan = fluid.run();

  std::size_t transfers = 0;
  for (const auto& members : clusters) {
    transfers += members.size();
    for (const auto id : members) {
      const FluidSimulation::TransferStats& st = fluid.stats(id);
      EXPECT_TRUE(st.done);
      EXPECT_EQ(st.bytes_moved, st.bytes);
      EXPECT_EQ(st.end, fluid.stats(members.front()).end)
          << "seed " << GetParam() << " transfer " << id;
    }
  }
  ASSERT_EQ(fired.size(), transfers);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.back().first, makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidBurstCompletions,
                         ::testing::Values(1u, 7u, 42u, 2013u, 90210u));

}  // namespace
}  // namespace numaio::sim
