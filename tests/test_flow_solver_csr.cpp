// CSR / epoch-cache behavior of FlowSolver: cache hits and invalidation
// per mutator, free-list slot recycling, capacity factors, profiling
// counters, the zero-steady-state-allocation guarantee of the solve
// scratch (a fluid_replay-style run must not grow scratch after warmup)
// and the typed Status of the dead-id mutators.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/obs.h"
#include "simcore/fluid_sim.h"
#include "simcore/flow_solver.h"
#include "simcore/rng.h"
#include "simcore/status.h"
#include "simcore/units.h"

namespace numaio::sim {
namespace {

FlowSolver two_link_solver(ResourceId* a, ResourceId* b) {
  FlowSolver s;
  *a = s.add_resource("a", 10.0);
  *b = s.add_resource("b", 20.0);
  return s;
}

TEST(FlowSolverCache, RepeatedSolvesHitTheCache) {
  ResourceId a = 0, b = 0;
  FlowSolver s = two_link_solver(&a, &b);
  const FlowId f = s.add_flow_over({a, b});
  const FlowId g = s.add_flow_over({a});

  const auto& r1 = s.solve();
  EXPECT_EQ(s.stats().solve_calls, 1u);
  EXPECT_EQ(s.stats().cache_misses, 1u);
  EXPECT_EQ(s.stats().cache_hits, 0u);

  const auto& r2 = s.solve();
  EXPECT_EQ(&r1, &r2);  // same cached vector, no recompute
  EXPECT_EQ(s.stats().cache_hits, 1u);
  EXPECT_EQ(s.stats().cache_misses, 1u);

  // aggregate_rate and utilization ride the cache after a solve.
  const Gbps agg = s.aggregate_rate();
  const double util = s.utilization(a);
  EXPECT_EQ(s.stats().cache_hits, 3u);
  EXPECT_EQ(s.stats().cache_misses, 1u);
  EXPECT_DOUBLE_EQ(agg, r1[f] + r1[g]);
  EXPECT_DOUBLE_EQ(util, 1.0);
}

TEST(FlowSolverCache, EveryMutatorInvalidates) {
  ResourceId a = 0, b = 0;
  FlowSolver s = two_link_solver(&a, &b);
  const FlowId f = s.add_flow_over({a, b});
  (void)f;

  auto expect_miss_after = [&](const char* what) {
    const std::uint64_t misses = s.stats().cache_misses;
    (void)s.solve();
    EXPECT_EQ(s.stats().cache_misses, misses + 1) << what;
  };

  expect_miss_after("initial");
  s.set_capacity(a, 12.0);
  expect_miss_after("set_capacity");
  s.set_capacity_factor(a, 0.5);
  expect_miss_after("set_capacity_factor");
  s.set_flow_cap(f, 3.0);
  expect_miss_after("set_flow_cap");
  const FlowId g = s.add_flow_over({b});
  expect_miss_after("add_flow");
  s.remove_flow(g);
  expect_miss_after("remove_flow");
}

TEST(FlowSolverCache, ValuePreservingMutationsKeepTheCacheWarm) {
  ResourceId a = 0, b = 0;
  FlowSolver s = two_link_solver(&a, &b);
  const FlowId f = s.add_flow_over({a, b}, 4.0);
  (void)s.solve();
  const std::uint64_t epoch = s.epoch();

  s.set_capacity(a, 10.0);        // unchanged capacity
  s.set_capacity_factor(a, 1.0);  // unchanged factor
  s.set_flow_cap(f, 4.0);         // unchanged cap
  EXPECT_EQ(s.epoch(), epoch);

  (void)s.solve();
  EXPECT_EQ(s.stats().cache_hits, 1u);
  EXPECT_EQ(s.stats().cache_misses, 1u);

  s.set_capacity(a, 9.0);
  EXPECT_GT(s.epoch(), epoch);
}

TEST(FlowSolverCache, ProfilingCountersReachTheRegistry) {
  obs::Context ctx;
  ResourceId a = 0, b = 0;
  FlowSolver s = two_link_solver(&a, &b);
  s.set_observer(&ctx);
  (void)s.add_flow_over({a, b}, 4.0);
  (void)s.add_flow_over({a});

  (void)s.solve();
  (void)s.solve();            // hit
  (void)s.aggregate_rate();   // hit

  EXPECT_EQ(ctx.metrics.value("solver.solves"), 3.0);
  EXPECT_EQ(ctx.metrics.value("solver.cache_hits"), 2.0);
  EXPECT_EQ(ctx.metrics.value("solver.cache_misses"), 1.0);
  EXPECT_EQ(ctx.metrics.value("solver.rounds"),
            static_cast<double>(s.stats().rounds));
  EXPECT_GT(ctx.metrics.value("solver.flows_scanned"), 0.0);
  EXPECT_GT(ctx.metrics.value("solver.resource_touches"), 0.0);
  // Intrinsic stats mirror the registry even without an observer.
  EXPECT_EQ(static_cast<double>(s.stats().flows_scanned),
            ctx.metrics.value("solver.flows_scanned"));
}

TEST(FlowSolverFreeList, RemovedSlotsAreRecycled) {
  ResourceId a = 0, b = 0;
  FlowSolver s = two_link_solver(&a, &b);
  const FlowId f0 = s.add_flow_over({a});
  const FlowId f1 = s.add_flow_over({a, b});
  const FlowId f2 = s.add_flow_over({b});
  EXPECT_EQ(s.live_flow_count(), 3u);

  s.remove_flow(f1);
  EXPECT_FALSE(s.flow_alive(f1));

  // A same-or-smaller flow reuses the freed slot (and its arena span).
  const FlowId g = s.add_flow_over({b, a});
  EXPECT_EQ(g, f1);
  EXPECT_TRUE(s.flow_alive(g));
  EXPECT_EQ(s.live_flow_count(), 3u);
  EXPECT_EQ(s.solve().size(), 3u);  // slot table did not grow

  // A wider flow still recycles the slot id, with a fresh arena span.
  s.remove_flow(f0);
  const FlowId h = s.add_flow_over({a, b, a});
  EXPECT_EQ(h, f0);
  EXPECT_EQ(s.solve().size(), 3u);
  (void)f2;
}

TEST(FlowSolverFreeList, ChurnKeepsTheSlotTableBounded) {
  ResourceId a = 0, b = 0;
  FlowSolver s = two_link_solver(&a, &b);
  Rng rng(99);
  std::vector<FlowId> live;
  for (int i = 0; i < 8; ++i) live.push_back(s.add_flow_over({a, b}));
  for (int i = 0; i < 500; ++i) {
    const std::size_t k = rng.below(live.size());
    s.remove_flow(live[k]);
    live[k] = s.add_flow_over(rng.uniform() < 0.5
                                  ? std::vector<ResourceId>{a, b}
                                  : std::vector<ResourceId>{b});
    EXPECT_LE(live[k], 8u);  // always a recycled slot
  }
  EXPECT_EQ(s.live_flow_count(), 8u);
  EXPECT_EQ(s.solve().size(), 8u);
}

TEST(FlowSolverCapacityFactor, FactorsComposeWithBaseCapacity) {
  FlowSolver s;
  const ResourceId r = s.add_resource("r", 10.0);
  EXPECT_EQ(s.capacity_factor(r), 1.0);

  s.set_capacity_factor(r, 0.5);
  EXPECT_DOUBLE_EQ(s.capacity(r), 5.0);
  EXPECT_EQ(s.capacity_factor(r), 0.5);

  // set_capacity adjusts the base; the factor survives.
  s.set_capacity(r, 20.0);
  EXPECT_DOUBLE_EQ(s.capacity(r), 10.0);
  EXPECT_EQ(s.capacity_factor(r), 0.5);

  // Factor 1.0 restores the base bit-exactly (no multiply involved).
  s.set_capacity_factor(r, 1.0);
  EXPECT_EQ(s.capacity(r), 20.0);

  const FlowId f = s.add_flow_over({r});
  s.set_capacity_factor(r, 0.25);
  EXPECT_DOUBLE_EQ(s.solve()[f], 5.0);
}

// The fluid_replay allocation gate: after the warmup ramp (all initial
// transfers active once, scratch sized to the peak), a steady-state churn
// of completions spawning follow-up transfers must not grow any solve
// scratch — stats().scratch_grows stays frozen for the rest of the run.
TEST(FlowSolverScratch, FluidReplaySteadyStateDoesNotAllocate) {
  FlowSolver solver;
  std::vector<ResourceId> links;
  for (int i = 0; i < 6; ++i) {
    links.push_back(solver.add_resource("link", 25.0));
  }
  FluidSimulation fluid(solver);
  Rng rng(0x5CA7);

  auto usages = [&] {
    const std::size_t i = rng.below(links.size());
    return std::vector<Usage>{{links[i], 1.0},
                              {links[(i + 1) % links.size()], 1.0}};
  };
  // Completion chains: each of 24 initial transfers respawns itself 20
  // times, so slots churn through the free-list at peak concurrency.
  std::function<void(int)> spawn = [&](int generation) {
    FluidSimulation::CompletionFn next;
    if (generation > 0) {
      next = [&spawn, generation](FluidSimulation::TransferId, Ns) {
        spawn(generation - 1);
      };
    }
    fluid.start_transfer(usages(), (1 + rng.below(4)) * kMiB, kUnlimited,
                         std::move(next));
  };
  for (int i = 0; i < 24; ++i) spawn(20);

  // By this control point every initial transfer has been active and
  // solved at least once, so all scratch has reached its peak size.
  std::uint64_t warm_grows = 0;
  bool recorded = false;
  fluid.schedule_control(2.0e6, [&] {
    warm_grows = solver.stats().scratch_grows;
    recorded = true;
  });

  fluid.run();
  ASSERT_TRUE(recorded);
  EXPECT_GT(solver.stats().solve_calls, 100u);
  EXPECT_EQ(solver.stats().scratch_grows, warm_grows)
      << "solve scratch reallocated during steady-state churn";
}

// --- Typed Status from dead-id mutators ----------------------------------

TEST(FlowSolverStatus, DeadIdMutatorsReturnUsageAndLeaveSolverIntact) {
  FlowSolver s;
  const ResourceId r = s.add_resource("r", 10.0);
  const FlowId f = s.add_flow_over({r});
  const FlowId g = s.add_flow_over({r});

  EXPECT_TRUE(s.set_flow_cap(f, 4.0).ok());
  EXPECT_TRUE(s.remove_flow(f).ok());
  (void)s.solve();
  const std::uint64_t epoch = s.epoch();

  // Double remove: typed usage error, not an assert or corruption.
  const Status dead = s.remove_flow(f);
  EXPECT_EQ(dead.code, StatusCode::kUsage);
  EXPECT_FALSE(dead.message.empty());

  // Out-of-range ids on both mutators.
  EXPECT_EQ(s.remove_flow(12345).code, StatusCode::kUsage);
  EXPECT_EQ(s.set_flow_cap(12345, 1.0).code, StatusCode::kUsage);
  EXPECT_EQ(s.set_flow_cap(f, 1.0).code, StatusCode::kUsage);

  // Failed mutations left the solver untouched: cache still warm, live
  // set unchanged, and the surviving flow still solves.
  EXPECT_EQ(s.epoch(), epoch);
  EXPECT_EQ(s.live_flow_count(), 1u);
  EXPECT_EQ(s.solve()[g], 10.0);
  EXPECT_EQ(s.stats().cache_hits, 1u);

  // The recycled slot is usable again after the failures.
  const FlowId h = s.add_flow_over({r});
  EXPECT_EQ(h, f);
  EXPECT_TRUE(s.set_flow_cap(h, 2.0).ok());
}

}  // namespace
}  // namespace numaio::sim
