#include "model/analysis.h"

#include <gtest/gtest.h>

#include <vector>

namespace numaio::model {
namespace {

const std::vector<double> kAscending{1, 2, 3, 4, 5};
const std::vector<double> kDescending{5, 4, 3, 2, 1};

TEST(Analysis, SpearmanPerfectAgreement) {
  const std::vector<double> scaled{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(spearman(kAscending, scaled), 1.0);
}

TEST(Analysis, SpearmanPerfectInversion) {
  EXPECT_DOUBLE_EQ(spearman(kAscending, kDescending), -1.0);
}

TEST(Analysis, SpearmanIsRankBasedNotLinear) {
  // A monotone nonlinear map preserves Spearman exactly.
  const std::vector<double> exp{2.7, 7.4, 20.1, 54.6, 148.4};
  EXPECT_DOUBLE_EQ(spearman(kAscending, exp), 1.0);
}

TEST(Analysis, SpearmanHandlesTies) {
  const std::vector<double> a{1, 2, 2, 3};
  const std::vector<double> b{1, 2, 2, 3};
  EXPECT_DOUBLE_EQ(spearman(a, b), 1.0);
}

TEST(Analysis, SpearmanConstantSeriesIsZero) {
  const std::vector<double> flat{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(spearman(kAscending, flat), 0.0);
}

TEST(Analysis, ShortSeriesReturnZero) {
  const std::vector<double> one{1.0};
  EXPECT_DOUBLE_EQ(spearman(one, one), 0.0);
}

}  // namespace
}  // namespace numaio::model
