#include "fabric/machine.h"

#include <gtest/gtest.h>

namespace numaio::fabric {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  Machine machine_{dl585_profile()};
};

TEST_F(MachineTest, FabricResourcesCarryPathCapacities) {
  auto& solver = machine_.solver();
  EXPECT_DOUBLE_EQ(solver.capacity(machine_.fabric_resource(2, 7)), 26.0);
  EXPECT_DOUBLE_EQ(solver.capacity(machine_.fabric_resource(7, 2)), 50.3);
}

TEST_F(MachineTest, McResourcesMatchLocalCopyLimit) {
  auto& solver = machine_.solver();
  EXPECT_DOUBLE_EQ(solver.capacity(machine_.mc_read(7)), 53.5);
  EXPECT_DOUBLE_EQ(solver.capacity(machine_.mc_write(7)), 53.5);
}

TEST_F(MachineTest, CpuCapacityIsCoresTimesUnits) {
  EXPECT_DOUBLE_EQ(machine_.cpu_capacity(3), 4 * 7.0);
  EXPECT_DOUBLE_EQ(machine_.solver().capacity(machine_.cpu(3)), 28.0);
}

TEST_F(MachineTest, LocalCopyUsagesTouchOnlyMc) {
  const auto usages = machine_.copy_usages(5, 5, 5);
  ASSERT_EQ(usages.size(), 2u);
  EXPECT_EQ(usages[0].resource, machine_.mc_read(5));
  EXPECT_EQ(usages[1].resource, machine_.mc_write(5));
}

TEST_F(MachineTest, RemoteLoadLegAddsFabric) {
  // Threads on 7 loading from 2, storing locally: mc_rd(2), fab(2->7),
  // mc_wr(7).
  const auto usages = machine_.copy_usages(7, 2, 7);
  ASSERT_EQ(usages.size(), 3u);
  EXPECT_EQ(usages[0].resource, machine_.mc_read(2));
  EXPECT_EQ(usages[1].resource, machine_.fabric_resource(2, 7));
  EXPECT_EQ(usages[2].resource, machine_.mc_write(7));
}

TEST_F(MachineTest, TwoLegCopyCrossesBothDirections) {
  // Threads on 7 copying 2 -> 3: load leg 2->7, store leg 7->3.
  const auto usages = machine_.copy_usages(7, 2, 3);
  ASSERT_EQ(usages.size(), 4u);
  EXPECT_EQ(usages[1].resource, machine_.fabric_resource(2, 7));
  EXPECT_EQ(usages[2].resource, machine_.fabric_resource(7, 3));
}

TEST_F(MachineTest, DmaUsagesToDevice) {
  const auto usages = machine_.dma_usages(2, 7, /*to_device=*/true);
  ASSERT_EQ(usages.size(), 2u);
  EXPECT_EQ(usages[0].resource, machine_.mc_read(2));
  EXPECT_EQ(usages[1].resource, machine_.fabric_resource(2, 7));
}

TEST_F(MachineTest, DmaUsagesFromDevice) {
  const auto usages = machine_.dma_usages(2, 7, /*to_device=*/false);
  ASSERT_EQ(usages.size(), 2u);
  EXPECT_EQ(usages[0].resource, machine_.fabric_resource(7, 2));
  EXPECT_EQ(usages[1].resource, machine_.mc_write(2));
}

TEST_F(MachineTest, DmaUsagesLocalSkipsFabric) {
  const auto usages = machine_.dma_usages(7, 7, /*to_device=*/true);
  ASSERT_EQ(usages.size(), 1u);
  EXPECT_EQ(usages[0].resource, machine_.mc_read(7));
}

TEST_F(MachineTest, ConcurrentStreamsShareAFabricPath) {
  auto& solver = machine_.solver();
  const auto usages = machine_.dma_usages(0, 7, true);
  const auto f1 = solver.add_flow(usages);
  const auto f2 = solver.add_flow(usages);
  const auto rates = solver.solve();
  EXPECT_NEAR(rates[f1], 22.0, 1e-9);  // 44.0 / 2
  EXPECT_NEAR(rates[f2], 22.0, 1e-9);
  solver.remove_flow(f1);
  solver.remove_flow(f2);
}

}  // namespace
}  // namespace numaio::fabric
