#include "mem/numademo.h"

#include <gtest/gtest.h>

#include "fabric/calibration.h"

namespace numaio::mem {
namespace {

class NumademoTest : public ::testing::Test {
 protected:
  fabric::Machine machine_{fabric::dl585_profile()};
  nm::Host host_{machine_};
};

TEST_F(NumademoTest, SevenModulesInOrder) {
  const auto modules = all_demo_modules();
  ASSERT_EQ(modules.size(), 7u);
  EXPECT_EQ(modules.front(), DemoModule::kMemset);
  EXPECT_EQ(modules.back(), DemoModule::kPtrChase);
}

TEST_F(NumademoTest, ModuleNames) {
  EXPECT_EQ(to_string(DemoModule::kMemset), "memset");
  EXPECT_EQ(to_string(DemoModule::kRandomAccess), "random-access");
  EXPECT_EQ(to_string(DemoModule::kPtrChase), "ptr-chase");
}

TEST_F(NumademoTest, BandwidthOrderingAcrossModules) {
  // Streaming loops are bandwidth-bound, random access latency-bound, the
  // pointer chase serialized: memset >= memcpy > random >> chase.
  const NodeId cpu = 5, mem = 5;
  const double memset_bw = run_demo(host_, DemoModule::kMemset, cpu, mem).bandwidth;
  const double memcpy_bw = run_demo(host_, DemoModule::kMemcpy, cpu, mem).bandwidth;
  const double walk = run_demo(host_, DemoModule::kForwardWalk, cpu, mem).bandwidth;
  const double rnd = run_demo(host_, DemoModule::kRandomAccess, cpu, mem).bandwidth;
  const double chase = run_demo(host_, DemoModule::kPtrChase, cpu, mem).bandwidth;
  EXPECT_GE(memset_bw, memcpy_bw);
  EXPECT_GT(walk, memcpy_bw);
  EXPECT_GT(memcpy_bw, rnd);
  EXPECT_GT(rnd, chase);
  EXPECT_GT(chase, 0.0);
}

TEST_F(NumademoTest, MemcpyModuleMatchesStreamCalibration) {
  // The memcpy/stream modules are the same PIO loop the STREAM Copy
  // kernel measures.
  const auto r = run_demo(host_, DemoModule::kMemcpy, 4, 7);
  EXPECT_NEAR(r.bandwidth, 18.45, 0.01);
  const auto s = run_demo(host_, DemoModule::kStreamCopy, 4, 7);
  EXPECT_NEAR(s.bandwidth, 18.45, 0.01);
}

TEST_F(NumademoTest, BackwardWalkSlowerThanForward) {
  const double fwd =
      run_demo(host_, DemoModule::kForwardWalk, 3, 0).bandwidth;
  const double bwd =
      run_demo(host_, DemoModule::kBackwardWalk, 3, 0).bandwidth;
  EXPECT_NEAR(bwd, 0.75 * fwd, 1e-6);
}

TEST_F(NumademoTest, LatencyBoundModulesFollowLatencyNotBandwidth) {
  // 7->2 has high streaming capacity (50.3) but a *short* DMA latency
  // (570 ns), while 7->0 has low capacity (40.9) and long latency
  // (910 ns). Bandwidth-bound modules and latency-bound modules must
  // rank them accordingly.
  const double chase_2 =
      run_demo(host_, DemoModule::kPtrChase, 7, 2).bandwidth;
  const double chase_0 =
      run_demo(host_, DemoModule::kPtrChase, 7, 0).bandwidth;
  EXPECT_GT(chase_2, chase_0);  // latency-bound: shorter lat wins
  const double walk_2 =
      run_demo(host_, DemoModule::kForwardWalk, 7, 2).bandwidth;
  const double walk_0 =
      run_demo(host_, DemoModule::kForwardWalk, 7, 0).bandwidth;
  EXPECT_LT(walk_2, walk_0);  // PIO-bound: the weak {2,3} paths lose
}

TEST_F(NumademoTest, ResultRecordsBinding) {
  const auto r = run_demo(host_, DemoModule::kMemset, 2, 6);
  EXPECT_EQ(r.module, DemoModule::kMemset);
  EXPECT_EQ(r.cpu_node, 2);
  EXPECT_EQ(r.mem_node, 6);
}

TEST_F(NumademoTest, MemoryReleasedAfterRun) {
  const auto before = host_.node_free_bytes(6);
  run_demo(host_, DemoModule::kMemcpy, 2, 6);
  EXPECT_EQ(host_.node_free_bytes(6), before);
}

TEST_F(NumademoTest, PolicyTableShapesAndOrdering) {
  const auto rows = demo_policy_table(host_, 5);
  ASSERT_EQ(rows.size(), 7u);
  for (const auto& row : rows) {
    EXPECT_GT(row.local, 0.0) << to_string(row.module);
    // Local beats the worst remote; interleaved sits between them.
    EXPECT_GE(row.local, row.remote_worst) << to_string(row.module);
    EXPECT_GE(row.local, row.interleaved) << to_string(row.module);
    EXPECT_GE(row.interleaved, row.remote_worst) << to_string(row.module);
  }
}

// Property sweep: every module on every binding yields a positive rate not
// exceeding the local memory-controller limit.
class DemoSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DemoSweep, PositiveAndBounded) {
  fabric::Machine machine{fabric::dl585_profile()};
  nm::Host host{machine};
  const auto [module_idx, node] = GetParam();
  const DemoModule module = all_demo_modules()[static_cast<std::size_t>(module_idx)];
  const auto r = run_demo(host, module, 7, node);
  EXPECT_GT(r.bandwidth, 0.0);
  EXPECT_LE(r.bandwidth, 53.5 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllModulesAllNodes, DemoSweep,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(0, 8)));

}  // namespace
}  // namespace numaio::mem
