#include "io/device.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "io/nic.h"
#include "io/ssd.h"

namespace numaio::io {
namespace {

TEST(Pcie, Gen2x8Gives32GbpsData) {
  // §IV-B1: 40 Gbps raw minus 8b/10b encoding = 32 Gbps.
  const PcieLink link{2, 8};
  EXPECT_DOUBLE_EQ(link.data_gbps(), 32.0);
}

TEST(Pcie, Gen1HalvesTheRate) {
  EXPECT_DOUBLE_EQ((PcieLink{1, 8}.data_gbps()), 16.0);
}

TEST(Pcie, Gen3UsesEfficientEncoding) {
  EXPECT_NEAR((PcieLink{3, 8}.data_gbps()), 63.0, 0.1);
}

class DeviceTest : public ::testing::Test {
 protected:
  fabric::Machine machine_{fabric::dl585_profile()};
};

TEST_F(DeviceTest, NicHasFourEngines) {
  auto nic = make_connectx3(machine_, 7);
  for (const char* engine : {kTcpSend, kTcpRecv, kRdmaWrite, kRdmaRead}) {
    EXPECT_NO_THROW(nic->engine(engine)) << engine;
  }
  EXPECT_THROW(nic->engine("udp"), std::out_of_range);
  EXPECT_EQ(nic->attach_node(), 7);
  EXPECT_EQ(nic->name(), "mlx4_0");
}

TEST_F(DeviceTest, UnknownEngineThrows) {
  auto nic = make_connectx3(machine_, 7);
  EXPECT_THROW(nic->engine("udp"), std::out_of_range);
  EXPECT_THROW(nic->engine_resource("udp"), std::out_of_range);
}

TEST_F(DeviceTest, EngineCapsMatchPaperCeilings) {
  auto nic = make_connectx3(machine_, 7);
  EXPECT_DOUBLE_EQ(nic->engine(kRdmaWrite).device_cap, 23.3);
  EXPECT_DOUBLE_EQ(nic->engine(kRdmaRead).device_cap, 22.0);
  EXPECT_LT(nic->engine(kTcpSend).device_cap,
            nic->engine(kRdmaWrite).device_cap);
}

TEST_F(DeviceTest, EngineDirections) {
  auto nic = make_connectx3(machine_, 7);
  EXPECT_TRUE(nic->engine(kTcpSend).to_device);
  EXPECT_FALSE(nic->engine(kTcpRecv).to_device);
  EXPECT_TRUE(nic->engine(kRdmaWrite).to_device);
  EXPECT_FALSE(nic->engine(kRdmaRead).to_device);
}

TEST_F(DeviceTest, RdmaOffloadsCpuWork) {
  auto nic = make_connectx3(machine_, 7);
  EXPECT_LT(nic->engine(kRdmaWrite).cpu_app_per_gbps,
            0.1 * nic->engine(kTcpSend).cpu_app_per_gbps);
}

TEST_F(DeviceTest, PcieResourcesRegisteredPerDirection) {
  auto nic = make_connectx3(machine_, 7);
  auto& solver = machine_.solver();
  EXPECT_DOUBLE_EQ(solver.capacity(nic->pcie_resource(true)), 32.0);
  EXPECT_DOUBLE_EQ(solver.capacity(nic->pcie_resource(false)), 32.0);
  EXPECT_NE(nic->pcie_resource(true), nic->pcie_resource(false));
}

TEST_F(DeviceTest, EngineOccupancyIsNormalized) {
  auto nic = make_connectx3(machine_, 7);
  EXPECT_DOUBLE_EQ(
      machine_.solver().capacity(nic->engine_resource(kTcpSend)), 1.0);
}

TEST_F(DeviceTest, SsdPairCombinedCapsMatchPaper) {
  auto pair = make_nytro_pair(machine_, 7);
  ASSERT_EQ(pair.size(), 2u);
  const double write_total = pair[0]->engine(kSsdWrite).device_cap +
                             pair[1]->engine(kSsdWrite).device_cap;
  const double read_total = pair[0]->engine(kSsdRead).device_cap +
                            pair[1]->engine(kSsdRead).device_cap;
  EXPECT_NEAR(write_total, 29.1, 1e-9);
  EXPECT_NEAR(read_total, 34.7, 1e-9);
  EXPECT_NE(pair[0]->name(), pair[1]->name());
}

TEST_F(DeviceTest, ResidualLookup) {
  auto pair = make_nytro_pair(machine_, 7);
  const EngineSpec& read = pair[0]->engine(kSsdRead);
  EXPECT_DOUBLE_EQ(read.residual_for(4), 0.70);
  EXPECT_DOUBLE_EQ(read.residual_for(6), 1.0);
}

TEST_F(DeviceTest, DeviceOnSecondIoHubWorks) {
  auto nic = make_connectx3(machine_, 1);
  EXPECT_EQ(nic->attach_node(), 1);
}

}  // namespace
}  // namespace numaio::io
