// Randomized property tests of the max-min-fair allocator: for seeded
// random resource networks, the solution must be feasible, and satisfy
// the bottleneck condition that characterizes max-min fairness (every
// flow is limited by its own cap, or crosses a saturated resource on
// which it has a maximal rate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "reference_flow_solver.h"
#include "simcore/flow_solver.h"
#include "simcore/rng.h"

namespace numaio::sim {
namespace {

struct Instance {
  FlowSolver solver;
  std::vector<ResourceId> resources;
  std::vector<FlowId> flows;
  std::vector<std::vector<ResourceId>> paths;  // per flow
};

/// Random network: 3-8 resources with capacities in [5, 50], 2-13 flows
/// over 1-3 distinct resources, ~half the flows carrying a private cap.
Instance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  const std::uint64_t R = 3 + rng.below(6);
  const std::uint64_t F = 2 + rng.below(12);
  for (std::uint64_t r = 0; r < R; ++r) {
    inst.resources.push_back(
        inst.solver.add_resource("r", rng.uniform(5.0, 50.0)));
  }
  for (std::uint64_t f = 0; f < F; ++f) {
    const std::uint64_t hops = 1 + rng.below(3);
    std::vector<ResourceId> path;
    for (std::uint64_t h = 0; h < hops; ++h) {
      const ResourceId r = inst.resources[rng.below(inst.resources.size())];
      if (std::find(path.begin(), path.end(), r) == path.end()) {
        path.push_back(r);
      }
    }
    const Gbps cap =
        rng.uniform() < 0.5 ? rng.uniform(1.0, 30.0) : kUnlimited;
    inst.flows.push_back(inst.solver.add_flow_over(path, cap));
    inst.paths.push_back(std::move(path));
  }
  return inst;
}

class SolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverProperty, FeasibleAndBottleneckFair) {
  const Instance inst = random_instance(GetParam());
  const auto rates = inst.solver.solve();
  constexpr double kEps = 1e-7;

  // Per-resource load from the known paths.
  std::vector<double> load(inst.resources.size(), 0.0);
  for (std::size_t fi = 0; fi < inst.flows.size(); ++fi) {
    EXPECT_LE(rates[inst.flows[fi]],
              inst.solver.flow_cap(inst.flows[fi]) + kEps);
    EXPECT_GE(rates[inst.flows[fi]], 0.0);
    for (ResourceId r : inst.paths[fi]) {
      const auto idx = static_cast<std::size_t>(
          std::find(inst.resources.begin(), inst.resources.end(), r) -
          inst.resources.begin());
      load[idx] += rates[inst.flows[fi]];
    }
  }
  // Feasibility.
  for (std::size_t r = 0; r < inst.resources.size(); ++r) {
    const double cap = inst.solver.capacity(inst.resources[r]);
    EXPECT_LE(load[r], cap + 1e-6 * std::max(1.0, cap));
  }

  // Bottleneck condition.
  for (std::size_t fi = 0; fi < inst.flows.size(); ++fi) {
    const FlowId f = inst.flows[fi];
    const bool capped = std::isfinite(inst.solver.flow_cap(f)) &&
                        rates[f] >= inst.solver.flow_cap(f) - kEps;
    if (capped) continue;
    bool bottlenecked = false;
    for (ResourceId r : inst.paths[fi]) {
      const auto idx = static_cast<std::size_t>(
          std::find(inst.resources.begin(), inst.resources.end(), r) -
          inst.resources.begin());
      const double cap = inst.solver.capacity(inst.resources[idx]);
      const bool saturated =
          load[idx] >= cap - 1e-6 * std::max(1.0, cap);
      if (!saturated) continue;
      // f must have a maximal rate among flows crossing r.
      double max_rate = 0.0;
      for (std::size_t gi = 0; gi < inst.flows.size(); ++gi) {
        if (std::find(inst.paths[gi].begin(), inst.paths[gi].end(), r) !=
            inst.paths[gi].end()) {
          max_rate = std::max(max_rate, rates[inst.flows[gi]]);
        }
      }
      if (rates[f] >= max_rate - 1e-6) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked)
        << "seed " << GetParam() << " flow " << f << " rate " << rates[f];
  }
}

TEST_P(SolverProperty, RemovingAFlowRaisesTheMinimum) {
  // Individual flows CAN lose from a removal (a competitor that was held
  // back elsewhere may claim its fair share), but max-min maximizes the
  // minimum: the worst-off remaining flow never gets worse.
  Instance inst = random_instance(GetParam());
  const auto before = inst.solver.solve();
  if (inst.flows.size() < 2) return;
  double min_before = kUnlimited;
  for (std::size_t fi = 1; fi < inst.flows.size(); ++fi) {
    min_before = std::min(min_before, before[inst.flows[fi]]);
  }
  inst.solver.remove_flow(inst.flows.front());
  const auto after = inst.solver.solve();
  double min_after = kUnlimited;
  for (std::size_t fi = 1; fi < inst.flows.size(); ++fi) {
    min_after = std::min(min_after, after[inst.flows[fi]]);
  }
  EXPECT_GE(min_after, min_before - 1e-9);
}

// The CSR solver must produce *bit-identical* rates to the retained
// pre-CSR reference implementation (tests/reference_flow_solver.h) under
// arbitrary churn: slot recycling, incidence-list freezing and the
// touched-resource delta scan must not change a single floating-point
// operation's order. The reference never reuses ids, so a mapping from
// production FlowId (recycled slots) to reference id rides along.
TEST_P(SolverProperty, ChurnMatchesReferenceBitForBit) {
  Rng rng(GetParam() * 7919 + 13);
  FlowSolver solver;
  test::ReferenceFlowSolver ref;

  std::vector<ResourceId> resources;
  const std::uint64_t R = 4 + rng.below(5);
  for (std::uint64_t r = 0; r < R; ++r) {
    const Gbps cap = rng.uniform(5.0, 50.0);
    resources.push_back(solver.add_resource("r", cap));
    const ResourceId ref_r = ref.add_resource(cap);
    ASSERT_EQ(ref_r, resources.back());
  }

  auto random_usages = [&] {
    // Duplicate resources and non-unit weights are deliberate: they
    // exercise weight accumulation and release order.
    const std::uint64_t n = 1 + rng.below(3);
    std::vector<Usage> usages;
    for (std::uint64_t i = 0; i < n; ++i) {
      usages.push_back(Usage{resources[rng.below(resources.size())],
                             rng.uniform(0.1, 2.0)});
    }
    return usages;
  };

  struct LiveFlow {
    FlowId id;           // production id (may be a recycled slot)
    std::size_t ref_id;  // reference id (never recycled)
  };
  std::vector<LiveFlow> live;  // in insertion order

  const auto compare = [&] {
    const auto& rates = solver.solve();
    const auto ref_rates = ref.solve();
    for (const LiveFlow& l : live) {
      ASSERT_EQ(rates[l.id], ref_rates[l.ref_id])
          << "seed " << GetParam() << " flow slot " << l.id;
    }
    EXPECT_EQ(solver.aggregate_rate(), ref.aggregate_rate());
    const std::size_t probe = rng.below(resources.size());
    EXPECT_EQ(solver.utilization(resources[probe]),
              ref.utilization(resources[probe]));
  };

  for (int op = 0; op < 80; ++op) {
    const std::uint64_t kind = rng.below(4);
    if (kind == 0 || live.empty()) {
      auto usages = random_usages();
      const Gbps cap =
          rng.uniform() < 0.5 ? rng.uniform(1.0, 30.0) : kUnlimited;
      const std::size_t ref_id = ref.add_flow(usages, cap);
      live.push_back(LiveFlow{solver.add_flow(std::move(usages), cap), ref_id});
    } else if (kind == 1) {
      const std::size_t k = rng.below(live.size());
      solver.remove_flow(live[k].id);
      ref.remove_flow(live[k].ref_id);
      // Order-preserving erase: both solvers iterate live flows in
      // insertion order, so the mapping must preserve it too.
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (kind == 2) {
      const std::size_t r = rng.below(resources.size());
      const Gbps cap = rng.uniform(5.0, 50.0);
      solver.set_capacity(resources[r], cap);
      ref.set_capacity(resources[r], cap);
    } else {
      const std::size_t k = rng.below(live.size());
      const Gbps cap = rng.uniform(1.0, 30.0);
      solver.set_flow_cap(live[k].id, cap);
      ref.set_flow_cap(live[k].ref_id, cap);
    }
    if (op % 3 == 0) compare();
  }
  compare();
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, SolverProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace numaio::sim
