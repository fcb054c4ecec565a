#include "mem/membench.h"

#include <gtest/gtest.h>

namespace numaio::mem {
namespace {

class MembenchTest : public ::testing::Test {
 protected:
  fabric::Machine machine_{fabric::dl585_profile()};
  nm::Host host_{machine_};
};

TEST_F(MembenchTest, MatrixIsFullAndPositive) {
  const BandwidthMatrix m = stream_matrix(host_);
  EXPECT_EQ(m.num_nodes(), 8);
  for (NodeId c = 0; c < 8; ++c) {
    for (NodeId d = 0; d < 8; ++d) {
      EXPECT_GT(m.at(c, d), 0.0);
    }
  }
}

TEST_F(MembenchTest, MatrixIsAsymmetric) {
  // Fig 3's headline property: the matrix is not symmetric, so no
  // undirected distance metric can explain it.
  const BandwidthMatrix m = stream_matrix(host_);
  EXPECT_GT(std::abs(m.at(7, 4) - m.at(4, 7)), 2.0);
}

TEST_F(MembenchTest, CentricModelsMatchMatrixSlices) {
  const BandwidthMatrix m = stream_matrix(host_);
  const auto cpu_model = cpu_centric(host_, 7);
  const auto mem_model = memory_centric(host_, 7);
  ASSERT_EQ(cpu_model.size(), 8u);
  ASSERT_EQ(mem_model.size(), 8u);
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(cpu_model[static_cast<std::size_t>(i)], m.at(7, i));
    EXPECT_DOUBLE_EQ(mem_model[static_cast<std::size_t>(i)], m.at(i, 7));
  }
}

TEST_F(MembenchTest, CpuCentricOrderingFig4a) {
  // Running on node 7: memory on {0,1} far ahead of {2,3}.
  const auto model = cpu_centric(host_, 7);
  const double avg01 = (model[0] + model[1]) / 2.0;
  const double avg23 = (model[2] + model[3]) / 2.0;
  EXPECT_NEAR(avg01 / avg23, 1.88, 0.1);
}

TEST_F(MembenchTest, MemoryCentricOrderingFig4b) {
  const auto model = memory_centric(host_, 7);
  const double avg01 = (model[0] + model[1]) / 2.0;
  const double avg23 = (model[2] + model[3]) / 2.0;
  EXPECT_NEAR(avg01 / avg23, 1.43, 0.1);
}

TEST_F(MembenchTest, LocalCellIsBestInEachCentricModelRow) {
  // In both Fig-4 models the local binding (node 7 itself) wins.
  const auto cpu_model = cpu_centric(host_, 7);
  const auto mem_model = memory_centric(host_, 7);
  for (NodeId i = 0; i < 7; ++i) {
    EXPECT_GT(cpu_model[7], cpu_model[static_cast<std::size_t>(i)]) << i;
    EXPECT_GT(mem_model[7], mem_model[static_cast<std::size_t>(i)]) << i;
  }
}

}  // namespace
}  // namespace numaio::mem
