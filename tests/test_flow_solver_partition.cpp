// The component-partitioned FlowSolver (SolveOptions::partition;
// DESIGN.md §11): per-component bit-identity against the frozen reference
// solver under sharded churn, agreement with the monolithic solve,
// dirty-component caching and component counters, union-find rebuilds
// after removal churn, the typed-Status dead-id mutators, and
// byte-identical I/O traces in either partition mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/fio.h"
#include "io/testbed.h"
#include "obs/obs.h"
#include "reference_flow_solver.h"
#include "simcore/flow_solver.h"
#include "simcore/rng.h"
#include "simcore/solve_options.h"

namespace numaio::sim {
namespace {

constexpr SolveOptions kPartitioned{.partition = true};

// --- Sharded churn: bit-identity per component ---------------------------

// A shard is a set of resources kept connected by a never-removed
// spanning flow, so it stays one resource-connected component for the
// whole history. Each shard carries its own frozen ReferenceFlowSolver;
// the production solver holds *all* shards and must reproduce every
// shard's reference rates bit for bit — the component decomposition must
// not change a single floating-point operation within a component.
struct Shard {
  std::vector<ResourceId> res;  ///< Production resource ids.
  test::ReferenceFlowSolver ref;
  struct LiveFlow {
    FlowId id;           ///< Production id (recycled slots).
    std::size_t ref_id;  ///< Reference id (never recycled).
  };
  std::vector<LiveFlow> live;  ///< Insertion order, spanning flow first.
};

class PartitionedSolverProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionedSolverProperty, ShardedChurnMatchesReferencePerShard) {
  constexpr std::size_t kShards = 5;
  constexpr std::size_t kResPerShard = 3;
  Rng rng(GetParam() * 6151 + 7);
  FlowSolver solver(kPartitioned);

  std::vector<Shard> shards(kShards);
  for (Shard& shard : shards) {
    for (std::size_t r = 0; r < kResPerShard; ++r) {
      const Gbps cap = rng.uniform(5.0, 50.0);
      shard.res.push_back(solver.add_resource("r", cap));
      shard.ref.add_resource(cap);
    }
    // The spanning flow glues the shard into one component forever.
    std::vector<Usage> span;
    for (std::size_t r = 0; r < kResPerShard; ++r) {
      span.push_back(Usage{shard.res[r], 0.5});
    }
    std::vector<Usage> ref_span;
    for (std::size_t r = 0; r < kResPerShard; ++r) {
      ref_span.push_back(Usage{r, 0.5});
    }
    const Gbps cap = rng.uniform(10.0, 40.0);
    const std::size_t ref_id = shard.ref.add_flow(std::move(ref_span), cap);
    shard.live.push_back({solver.add_flow(std::move(span), cap), ref_id});
  }

  const auto compare_all = [&] {
    const auto& rates = solver.solve();
    for (std::size_t si = 0; si < shards.size(); ++si) {
      const auto ref_rates = shards[si].ref.solve();
      for (const Shard::LiveFlow& l : shards[si].live) {
        ASSERT_EQ(rates[l.id], ref_rates[l.ref_id])
            << "seed " << GetParam() << " shard " << si << " slot " << l.id;
      }
    }
  };

  compare_all();
  for (int op = 0; op < 120; ++op) {
    Shard& shard = shards[rng.below(shards.size())];
    const std::uint64_t kind = rng.below(4);
    if (kind == 0 || shard.live.size() < 2) {
      // Add a flow over 1-3 shard resources (duplicates + weights on
      // purpose: weight accumulation order must survive partitioning).
      const std::uint64_t n = 1 + rng.below(3);
      std::vector<Usage> usages, ref_usages;
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::size_t r = rng.below(shard.res.size());
        const double w = rng.uniform(0.1, 2.0);
        usages.push_back(Usage{shard.res[r], w});
        ref_usages.push_back(Usage{r, w});
      }
      const Gbps cap =
          rng.uniform() < 0.5 ? rng.uniform(1.0, 30.0) : kUnlimited;
      const std::size_t ref_id = shard.ref.add_flow(std::move(ref_usages), cap);
      shard.live.push_back({solver.add_flow(std::move(usages), cap), ref_id});
    } else if (kind == 1) {
      // Remove any flow but the spanning one (index 0).
      const std::size_t k = 1 + rng.below(shard.live.size() - 1);
      ASSERT_TRUE(solver.remove_flow(shard.live[k].id).ok());
      shard.ref.remove_flow(shard.live[k].ref_id);
      shard.live.erase(shard.live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (kind == 2) {
      const std::size_t r = rng.below(shard.res.size());
      const Gbps cap = rng.uniform(5.0, 50.0);
      solver.set_capacity(shard.res[r], cap);
      shard.ref.set_capacity(r, cap);
    } else {
      const std::size_t k = rng.below(shard.live.size());
      const Gbps cap = rng.uniform(1.0, 30.0);
      ASSERT_TRUE(solver.set_flow_cap(shard.live[k].id, cap).ok());
      shard.ref.set_flow_cap(shard.live[k].ref_id, cap);
    }
    if (op % 4 == 0) compare_all();
  }
  compare_all();
  EXPECT_EQ(solver.stats().components, kShards);
}

// Partitioning changes only the floating-point association of a
// multi-component solve, never the allocation: for any mutation history
// the partitioned rates agree with the monolithic solve of the same
// history to rounding, flow by flow and in aggregate.
TEST_P(PartitionedSolverProperty, RatesMatchMonolithicSolve) {
  const auto run_history = [&](const SolveOptions& options) {
    Rng rng(GetParam() * 31 + 5);
    FlowSolver solver(options);
    std::vector<std::vector<ResourceId>> shard_res(6);
    for (auto& res : shard_res) {
      for (int r = 0; r < 3; ++r) {
        res.push_back(solver.add_resource("r", rng.uniform(5.0, 50.0)));
      }
    }
    std::vector<FlowId> live;
    std::vector<Gbps> checkpoints;
    for (int op = 0; op < 150; ++op) {
      const auto& res = shard_res[rng.below(shard_res.size())];
      if (rng.below(3) != 0 || live.empty()) {
        std::vector<Usage> usages;
        const std::uint64_t n = 1 + rng.below(3);
        for (std::uint64_t i = 0; i < n; ++i) {
          usages.push_back(
              Usage{res[rng.below(res.size())], rng.uniform(0.1, 2.0)});
        }
        const Gbps cap =
            rng.uniform() < 0.5 ? rng.uniform(1.0, 30.0) : kUnlimited;
        live.push_back(solver.add_flow(std::move(usages), cap));
      } else {
        const std::size_t k = rng.below(live.size());
        EXPECT_TRUE(solver.remove_flow(live[k]).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      }
      if (op % 5 == 0) {
        const auto& rates = solver.solve();
        checkpoints.insert(checkpoints.end(), rates.begin(), rates.end());
        checkpoints.push_back(solver.aggregate_rate());
      }
    }
    return checkpoints;
  };

  const auto mono = run_history(SolveOptions{});
  const auto part = run_history(kPartitioned);
  ASSERT_EQ(mono.size(), part.size());
  for (std::size_t i = 0; i < mono.size(); ++i) {
    ASSERT_NEAR(part[i], mono[i], 1e-9 * std::max(1.0, std::abs(mono[i])))
        << "seed " << GetParam() << " checkpoint value " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShardedNetworks, PartitionedSolverProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// On a single-component graph the partitioned engine degenerates to the
// monolithic walk (same flows, same insertion order), so partition on/off
// must agree bitwise there — the FP caveat is multi-component only.
TEST(FlowSolverPartition, SingleComponentMatchesMonolithicBitwise) {
  const auto build = [](const SolveOptions& options) {
    FlowSolver s(options);
    const ResourceId a = s.add_resource("a", 10.0);
    const ResourceId b = s.add_resource("b", 20.0);
    const ResourceId c = s.add_resource("c", 7.5);
    (void)s.add_flow({{a, 1.0}, {b, 0.5}}, kUnlimited);
    (void)s.add_flow({{b, 1.3}, {c, 1.0}}, 6.0);
    (void)s.add_flow({{a, 0.7}, {c, 0.2}}, kUnlimited);
    (void)s.add_flow_over({a, b, c});
    return s;
  };
  FlowSolver mono = build(SolveOptions{});
  FlowSolver part = build(kPartitioned);
  const auto& mr = mono.solve();
  const auto& pr = part.solve();
  ASSERT_EQ(mr.size(), pr.size());
  for (std::size_t f = 0; f < mr.size(); ++f) EXPECT_EQ(mr[f], pr[f]);
  EXPECT_EQ(mono.aggregate_rate(), part.aggregate_rate());
  EXPECT_EQ(part.stats().components, 1u);
}

// --- Dirty-component caching ---------------------------------------------

TEST(FlowSolverPartition, MutationReSolvesOnlyItsComponent) {
  FlowSolver s(kPartitioned);
  const ResourceId a1 = s.add_resource("a1", 10.0);
  const ResourceId a2 = s.add_resource("a2", 20.0);
  const ResourceId b1 = s.add_resource("b1", 15.0);
  const ResourceId b2 = s.add_resource("b2", 25.0);
  const FlowId fa = s.add_flow_over({a1, a2});
  const FlowId fb = s.add_flow_over({b1, b2});

  const auto& r1 = s.solve();
  EXPECT_EQ(s.stats().components, 2u);
  EXPECT_EQ(s.stats().dirty_components, 2u);  // first solve: all dirty
  const Gbps fb_before = r1[fb];

  s.set_flow_cap(fa, 3.0);
  const auto& r2 = s.solve();
  EXPECT_EQ(s.stats().components, 2u);
  EXPECT_EQ(s.stats().dirty_components, 1u)
      << "a flow-cap change on one component re-solved the other too";
  EXPECT_EQ(r2[fa], 3.0);
  EXPECT_EQ(r2[fb], fb_before);  // clean component kept its cached rate

  s.set_capacity(b1, 12.0);
  (void)s.solve();
  EXPECT_EQ(s.stats().dirty_components, 1u);
}

TEST(FlowSolverPartition, ComponentStatsDescribeTheLastSolve) {
  FlowSolver s(kPartitioned);
  std::vector<ResourceId> islands;
  for (int i = 0; i < 4; ++i) {
    islands.push_back(s.add_resource("r", 10.0 + i));
    (void)s.add_flow_over({islands.back()});
  }
  (void)s.solve();
  EXPECT_EQ(s.stats().components, 4u);
  EXPECT_EQ(s.stats().dirty_components, 4u);
  EXPECT_EQ(s.stats().largest_component_flows, 1u);

  // A second flow on one island grows that component; only it re-solves.
  (void)s.add_flow_over({islands[0]});
  (void)s.solve();
  EXPECT_EQ(s.stats().components, 4u);
  EXPECT_EQ(s.stats().dirty_components, 1u);
  EXPECT_EQ(s.stats().largest_component_flows, 2u);

  // The monolithic solver keeps no component counters.
  FlowSolver mono;
  const ResourceId r = mono.add_resource("r", 10.0);
  (void)mono.add_flow_over({r});
  (void)mono.solve();
  EXPECT_EQ(mono.stats().components, 0u);
  EXPECT_EQ(mono.stats().largest_component_flows, 0u);
}

// --- Union-find rebuilds --------------------------------------------------

TEST(FlowSolverPartition, RemovalChurnRebuildsAndSplitsComponents) {
  FlowSolver s(kPartitioned);
  const ResourceId a1 = s.add_resource("a1", 10.0);
  const ResourceId a2 = s.add_resource("a2", 20.0);
  const ResourceId b1 = s.add_resource("b1", 15.0);
  const ResourceId b2 = s.add_resource("b2", 25.0);
  (void)s.add_flow_over({a1, a2});
  (void)s.add_flow_over({b1, b2});
  const FlowId bridge = s.add_flow_over({a2, b1});

  (void)s.solve();
  EXPECT_EQ(s.stats().components, 1u);  // the bridge merges the shards

  // Union-find cannot split: removing the bridge leaves the merged
  // component in place until removal churn triggers a rebuild.
  ASSERT_TRUE(s.remove_flow(bridge).ok());
  for (int i = 0; i < 20; ++i) {
    const FlowId tmp = s.add_flow_over({a1});
    ASSERT_TRUE(s.remove_flow(tmp).ok());
  }
  (void)s.solve();
  EXPECT_GE(s.stats().component_rebuilds, 1u);
  EXPECT_EQ(s.stats().components, 2u)
      << "the rebuild did not split the bridged shards";
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

// --- Partition mode never moves an I/O trace ----------------------------

// Every stream of a fio job crosses the NIC, so the DL585 fabric is one
// resource-connected component and the partitioned solve degenerates to
// the monolithic walk: the serialized trace must not change by a byte.
std::string traced_fio_run(const SolveOptions& options) {
  std::ostringstream out;
  obs::Context ctx;
  obs::JsonlSink sink(out);
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&sink);

  io::Testbed tb = io::Testbed::dl585();
  tb.machine().solver().set_options(options);
  tb.machine().solver().set_observer(&ctx);
  io::FioRunner fio(tb.host());
  fio.set_observer(&ctx);
  io::FioJob job;
  job.devices = {&tb.nic()};
  job.engine = io::kRdmaWrite;
  job.cpu_node = 2;
  job.num_streams = 4;
  (void)fio.run(job);
  job.engine = io::kRdmaRead;
  job.cpu_node = 5;
  (void)fio.run(job);
  return out.str();
}

TEST(FlowSolverPartition, FioTracesAreByteIdenticalAcrossPartitionModes) {
  const std::string mono = traced_fio_run(SolveOptions{});
  const std::string part = traced_fio_run(kPartitioned);
  ASSERT_FALSE(mono.empty());
  EXPECT_EQ(mono, part);
}

}  // namespace
}  // namespace numaio::sim
