#include "model/asymmetry.h"

#include <gtest/gtest.h>

#include "fabric/calibration.h"
#include "topo/presets.h"

namespace numaio::model {
namespace {

class AsymmetryTest : public ::testing::Test {
 protected:
  fabric::Machine machine_{fabric::dl585_profile()};
  nm::Host host_{machine_};
  IoModelConfig quick_{.repetitions = 5};
};

TEST_F(AsymmetryTest, IoModelMatrixFillsRowAndColumnOfTheTarget) {
  const auto m = iomodel_matrix(host_, 7, quick_);
  EXPECT_GT(m.at(2, 7), 25.0);  // write model, weak direction
  EXPECT_GT(m.at(7, 2), 45.0);  // read model, strong direction
  EXPECT_DOUBLE_EQ(m.at(2, 3), 0.0);  // unmeasured stays empty
}

TEST_F(AsymmetryTest, FindsTheCalibratedWeakDirections) {
  const auto m = iomodel_matrix(host_, 7, quick_);
  const auto pairs = find_asymmetric_pairs(m, 1.15);
  ASSERT_FALSE(pairs.empty());
  // Worst asymmetry: 7->2 (50.3) vs 2->7 (26.0), ratio ~1.93.
  EXPECT_EQ(pairs.front().strong_src, 7);
  EXPECT_EQ(pairs.front().strong_dst, 2);
  EXPECT_NEAR(pairs.front().ratio, 1.93, 0.05);
  // The 4<->7 inversion (4->7 strong at 42.9, 7->4 weak at 27.9) shows up.
  bool found_47 = false;
  for (const auto& p : pairs) {
    if (p.strong_src == 4 && p.strong_dst == 7) found_47 = true;
  }
  EXPECT_TRUE(found_47);
}

TEST_F(AsymmetryTest, SortedByDescendingRatio) {
  const auto m = iomodel_matrix(host_, 7, quick_);
  const auto pairs = find_asymmetric_pairs(m, 1.05);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_GE(pairs[i - 1].ratio, pairs[i].ratio);
  }
  for (const auto& p : pairs) {
    EXPECT_GE(p.forward, p.backward);
    EXPECT_GE(p.ratio, 1.05);
  }
}

TEST_F(AsymmetryTest, IdealizedHostHasNoFindings) {
  fabric::Machine machine{
      fabric::derived_profile(topo::magny_cours_4p('a'))};
  nm::Host host{machine};
  const auto m = iomodel_matrix(host, 7, quick_);
  EXPECT_TRUE(find_asymmetric_pairs(m, 1.15).empty());
}

TEST_F(AsymmetryTest, ThresholdGatesFindings) {
  const auto m = iomodel_matrix(host_, 7, quick_);
  EXPECT_GT(find_asymmetric_pairs(m, 1.05).size(),
            find_asymmetric_pairs(m, 1.5).size());
  EXPECT_TRUE(find_asymmetric_pairs(m, 10.0).empty());
}

TEST_F(AsymmetryTest, DescriptionsNameTheDirections) {
  const auto m = iomodel_matrix(host_, 7, quick_);
  const auto lines = describe(find_asymmetric_pairs(m, 1.5));
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find("7->2"), std::string::npos);
  EXPECT_NE(lines.front().find("unganged link"), std::string::npos);
}

TEST_F(AsymmetryTest, FullStreamMatrixAlsoDiagnosable) {
  // The same scan works on the STREAM matrix (§IV-A's asymmetry).
  const auto bw = mem::stream_matrix(host_);
  const auto pairs = find_asymmetric_pairs(bw, 1.15);
  ASSERT_FALSE(pairs.empty());
  bool found_74 = false;
  for (const auto& p : pairs) {
    // cpu7/mem4 = 21.34 vs cpu4/mem7 = 18.45 -> PIO asymmetry 7 vs 4.
    if ((p.strong_src == 7 && p.strong_dst == 4)) found_74 = true;
  }
  EXPECT_TRUE(found_74);
}

}  // namespace
}  // namespace numaio::model
