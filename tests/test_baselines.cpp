#include "model/baselines.h"

#include <gtest/gtest.h>

#include "io/testbed.h"
#include "model/analysis.h"
#include "topo/presets.h"

namespace numaio::model {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : tb_(io::Testbed::dl585()) {
    bw_ = mem::stream_matrix(tb_.host());
  }

  std::vector<double> rdma_read_sweep() {
    io::FioRunner fio(tb_.host());
    std::vector<double> out;
    for (topo::NodeId node = 0; node < 8; ++node) {
      io::FioJob j;
      j.devices = {&tb_.nic()};
      j.engine = io::kRdmaRead;
      j.cpu_node = node;
      j.num_streams = 4;
      out.push_back(fio.run(j).aggregate);
    }
    return out;
  }

  io::Testbed tb_;
  mem::BandwidthMatrix bw_;
};

TEST_F(BaselinesTest, HopModelLevelsDecreaseWithDistance) {
  const HopModel m = fit_hop_model(bw_, tb_.machine().topology());
  ASSERT_EQ(m.level.size(), 3u);  // hops 0..2 on layout (a)
  EXPECT_GT(m.level[0], m.level[1]);
  EXPECT_GT(m.level[1], m.level[2] * 0.95);  // remote levels nearly merge
}

TEST_F(BaselinesTest, PredictBeyondDiameterClampsToLast) {
  HopModel m;
  m.level = {30.0, 20.0};
  EXPECT_DOUBLE_EQ(m.predict(0), 30.0);
  EXPECT_DOUBLE_EQ(m.predict(5), 20.0);
}

TEST_F(BaselinesTest, HopClassesPartitionByDistance) {
  const auto c = classify_by_hops(tb_.machine().topology(), 7);
  // Layout (a): class1 {6,7}; one-hop {0,2,4}; two-hop {1,3,5}.
  ASSERT_EQ(c.num_classes(), 3);
  EXPECT_EQ(c.classes[0], (std::vector<NodeId>{6, 7}));
  EXPECT_EQ(c.classes[1], (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(c.classes[2], (std::vector<NodeId>{1, 3, 5}));
}

TEST_F(BaselinesTest, HopModelLosesToIoModelOnRdmaRead) {
  // The paper's argument in one assertion: hop-predicted bandwidth ranks
  // real RDMA_READ worse than the proposed model does.
  const auto io = rdma_read_sweep();
  const HopModel hop = fit_hop_model(bw_, tb_.machine().topology());
  const auto hop_pred =
      predict_for_target(hop, tb_.machine().topology(), 7);
  const auto proposed =
      build_iomodel(tb_.host(), 7, Direction::kDeviceRead);
  EXPECT_GT(spearman(proposed.bw, io),
            spearman(hop_pred, io) + 0.3);
}

TEST_F(BaselinesTest, HopClassesDisagreeWithModelClassesOnReads) {
  // Hop classes put {0,2,4} together; the device-read model splits them
  // across three classes (2 strong, 0 mid, 4 floor).
  const auto hops = classify_by_hops(tb_.machine().topology(), 7);
  const auto m = build_iomodel(tb_.host(), 7, Direction::kDeviceRead);
  const auto classes = classify(m, tb_.machine().topology());
  const double agreement = class_agreement(classes, hops);
  EXPECT_LT(agreement, 0.85);  // well below the control host (>= 0.9)
  // Same-structure sanity: a classification agrees with itself fully.
  EXPECT_DOUBLE_EQ(class_agreement(classes, classes), 1.0);
}

TEST_F(BaselinesTest, HopClassesMatchOnAnIdealizedHost) {
  // Control: on a derived (wiring-faithful) fabric, hop classes and model
  // classes coincide, so the baseline is only wrong where the hardware is
  // weird — exactly the paper's framing.
  fabric::Machine machine{
      fabric::derived_profile(topo::magny_cours_4p('a'))};
  nm::Host host{machine};
  const auto m = build_iomodel(host, 7, Direction::kDeviceWrite);
  const auto model_classes = classify(m, machine.topology());
  const auto hop_classes = classify_by_hops(machine.topology(), 7);
  EXPECT_GE(class_agreement(model_classes, hop_classes), 0.9);
}

}  // namespace
}  // namespace numaio::model
