#include "model/report.h"

#include <gtest/gtest.h>

#include "fabric/calibration.h"

namespace numaio::model {
namespace {

TEST(Report, MatrixHasHeadersAndValues) {
  mem::BandwidthMatrix m;
  m.bw = {{1.0, 2.5}, {3.25, 4.0}};
  const std::string s = format_matrix(m);
  EXPECT_NE(s.find("CPU0"), std::string::npos);
  EXPECT_NE(s.find("MEM1"), std::string::npos);
  EXPECT_NE(s.find("3.25"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
}

TEST(Report, MatrixCustomPrefixes) {
  mem::BandwidthMatrix m;
  m.bw = {{1.0}};
  const std::string s = format_matrix(m, "SRC", "DST");
  EXPECT_NE(s.find("SRC0"), std::string::npos);
  EXPECT_NE(s.find("DST0"), std::string::npos);
}

TEST(Report, SeriesTitleAndLabels) {
  const std::vector<sim::Gbps> values{10.5, 20.25};
  const std::string s = format_series("write model", values);
  EXPECT_NE(s.find("write model"), std::string::npos);
  EXPECT_NE(s.find("node0"), std::string::npos);
  EXPECT_NE(s.find("node1"), std::string::npos);
  EXPECT_NE(s.find("10.50"), std::string::npos);
}

class ReportWithClasses : public ::testing::Test {
 protected:
  ReportWithClasses() : machine_(fabric::dl585_profile()), host_(machine_) {
    model_ = build_iomodel(host_, 7, Direction::kDeviceWrite);
    classes_ = classify(model_, machine_.topology());
  }
  fabric::Machine machine_;
  nm::Host host_;
  IoModelResult model_;
  Classification classes_;
};

TEST_F(ReportWithClasses, ClassTableShapedLikeTableIV) {
  std::vector<MeasuredRow> rows;
  rows.push_back(MeasuredRow{
      "TCP sender",
      {20.9, 20.9, 16.2, 16.2, 20.9, 20.9, 20.9, 20.0}});
  const std::string s = format_class_table(classes_, "Proposed memcpy",
                                           model_.bw, rows);
  EXPECT_NE(s.find("Class 1"), std::string::npos);
  EXPECT_NE(s.find("Class 3"), std::string::npos);
  EXPECT_NE(s.find("6,7"), std::string::npos);
  EXPECT_NE(s.find("0,1,4,5"), std::string::npos);
  EXPECT_NE(s.find("Proposed memcpy"), std::string::npos);
  EXPECT_NE(s.find("TCP sender avg"), std::string::npos);
}

TEST_F(ReportWithClasses, SummaryByClassComputesRangeAndAvg) {
  const std::vector<sim::Gbps> tcp{20.9, 20.9, 16.2, 16.2,
                                   20.9, 20.9, 20.9, 20.0};
  const Classification s = summarize_classes(classes_.classes, tcp);
  ASSERT_EQ(s.class_avg.size(), 3u);
  EXPECT_NEAR(s.class_avg[0], (20.9 + 20.0) / 2.0, 1e-9);   // {6,7}
  EXPECT_NEAR(s.class_avg[2], 16.2, 1e-9);                  // {2,3}
  EXPECT_DOUBLE_EQ(s.class_range[0].first, 20.0);
  EXPECT_DOUBLE_EQ(s.class_range[0].second, 20.9);
  EXPECT_EQ(s.class_of, classes_.class_of);
}

TEST(Report, HeatmapShadesScaleWithValues) {
  mem::BandwidthMatrix m;
  m.bw = {{10.0, 20.0}, {30.0, 10.0}};
  const std::string s = format_heatmap(m);
  EXPECT_NE(s.find("CPU0"), std::string::npos);
  EXPECT_NE(s.find("scale: ' ' = 10.0 Gbps ... '@' = 30.0 Gbps"),
            std::string::npos);
  // Min cell renders as lightest, max as heaviest shade.
  EXPECT_NE(s.find("CPU1  @"), std::string::npos);
}

TEST(Report, HeatmapConstantMatrixDoesNotDivideByZero) {
  mem::BandwidthMatrix m;
  m.bw = {{5.0, 5.0}, {5.0, 5.0}};
  const std::string s = format_heatmap(m);
  EXPECT_NE(s.find("scale"), std::string::npos);
}

}  // namespace
}  // namespace numaio::model
