// FioRunner::diagnose — identifying the binding resource of a transfer.
#include <gtest/gtest.h>

#include <stdexcept>

#include "io/testbed.h"
#include "simcore/status.h"

namespace numaio::io {
namespace {

class DiagnoseTest : public ::testing::Test {
 protected:
  DiagnoseTest() : tb_(Testbed::dl585()), fio_(tb_.host()) {}

  FioJob job(const std::string& engine, NodeId node, int streams = 4) {
    FioJob j;
    j.devices = tb_.devices().for_engine(engine);
    j.engine = engine;
    j.cpu_node = node;
    j.num_streams = streams;
    return j;
  }

  Testbed tb_;
  FioRunner fio_;
};

TEST_F(DiagnoseTest, DeviceCapBindsTheGoodBindings) {
  const auto report = fio_.diagnose(job(kRdmaWrite, 5));
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front().name, "mlx4_0:rdma_write");
  EXPECT_NEAR(report.front().utilization, 1.0, 1e-6);
}

TEST_F(DiagnoseTest, EngineWindowStillChargesTheEngineOnWeakPaths) {
  // On {2,3} the engine-window term saturates the occupancy resource at
  // the window-limited level (tau = 1/17.1 each): the engine is the
  // nominal bottleneck, with the fabric pair visibly loaded too.
  const auto report = fio_.diagnose(job(kRdmaWrite, 2));
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front().name, "mlx4_0:rdma_write");
  bool fabric_seen = false;
  for (const auto& r : report) {
    if (r.name == "fab:2>7") {
      fabric_seen = true;
      EXPECT_GT(r.utilization, 0.5);
      EXPECT_LT(r.utilization, 0.8);  // 17.1 of 26.0
    }
  }
  EXPECT_TRUE(fabric_seen);
}

TEST_F(DiagnoseTest, CpuBindsTcpOnTheDeviceNode) {
  const auto report = fio_.diagnose(job(kTcpSend, 7));
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front().name, "cpu:7");
  EXPECT_NEAR(report.front().utilization, 1.0, 1e-6);
}

TEST_F(DiagnoseTest, SingleStreamIsWindowNotResourceBound) {
  const auto report = fio_.diagnose(job(kTcpSend, 5, 1));
  // Nothing saturates: the per-stream congestion window is the limit.
  for (const auto& r : report) {
    EXPECT_LT(r.utilization, 0.75) << r.name;
  }
}

TEST_F(DiagnoseTest, ReportSortedAndHostUnchanged) {
  const auto before = tb_.host().node_free_bytes(3);
  const auto live_flows = tb_.machine().solver().live_flow_count();
  const auto resources = tb_.machine().solver().resource_count();
  const auto report = fio_.diagnose(job(kSsdRead, 3));
  for (std::size_t i = 1; i < report.size(); ++i) {
    EXPECT_GE(report[i - 1].utilization, report[i].utilization);
  }
  EXPECT_EQ(tb_.host().node_free_bytes(3), before);
  EXPECT_EQ(tb_.machine().solver().live_flow_count(), live_flows);
  EXPECT_EQ(tb_.machine().solver().resource_count(), resources);
}

TEST_F(DiagnoseTest, PeerBindingIsTheLimit) {
  // A peer process on node 2 sinks less than node 7 sends (20.0 Gbps
  // with an optimal peer, 16.2 with this one); diagnose once left the
  // peer cap out and blamed the local CPU.
  FioJob j = job(kTcpRecv, 7);
  j.peer_node = 2;
  const auto report = fio_.diagnose(j);
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front().name.rfind("peer:", 0), 0u)
      << report.front().name;
  EXPECT_NEAR(report.front().utilization, 1.0, 1e-6);
}

TEST_F(DiagnoseTest, RejectsWhatRunRejects) {
  // A node outside the host once read past the per-node tables, and a
  // zero-stream job or one stream over two SSDs once diagnosed cleanly.
  const auto free = tb_.host().node_free_bytes(0);
  try {
    fio_.diagnose(job(kRdmaWrite, 9));
    ADD_FAILURE() << "accepted cpu_node 9";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kUsage) << e.what();
  }
  EXPECT_THROW(fio_.diagnose(job(kTcpSend, 0, 0)), std::invalid_argument);
  EXPECT_THROW(fio_.diagnose(job(kSsdRead, 0, 1)), std::invalid_argument);
  EXPECT_EQ(tb_.host().node_free_bytes(0), free);
}

TEST_F(DiagnoseTest, IoModeShapesTheStreams) {
  // Sync-buffered SSD streams run at a small fraction of the async-direct
  // rate (§IV-B3), so they load the card's engine far less; diagnose
  // once shaped both modes alike.
  const auto engine_load = [this](IoMode mode) {
    FioJob j = job(kSsdRead, 0, 2);
    j.io_mode = mode;
    for (const auto& r : fio_.diagnose(j)) {
      if (r.name == "nytro0:ssd_read") return r.utilization;
    }
    return -1.0;
  };
  const double direct = engine_load(IoMode::kAsyncDirect);
  const double buffered = engine_load(IoMode::kSyncBuffered);
  EXPECT_GT(buffered, 0.0);
  EXPECT_LT(buffered, 0.5 * direct);
}

TEST_F(DiagnoseTest, PcieNeverBindsOnThisTestbed) {
  // §IV-B1's point inverted: 32 Gbps of PCIe data headroom means the
  // protocol engines, not the bus, are the ceiling everywhere.
  for (NodeId node : {0, 2, 7}) {
    for (const auto& r : fio_.diagnose(job(kTcpSend, node))) {
      if (r.name.find("pcie") != std::string::npos) {
        EXPECT_LT(r.utilization, 0.99) << node;
      }
    }
  }
}

}  // namespace
}  // namespace numaio::io
