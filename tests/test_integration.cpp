// End-to-end checks of the paper's central claims, exercised through the
// full public workflow: STREAM characterization, Algorithm 1, fio
// measurements, rank analysis, prediction, scheduling.
#include <gtest/gtest.h>

#include "io/testbed.h"
#include "mem/membench.h"
#include "model/analysis.h"
#include "model/classify.h"
#include "model/predictor.h"

namespace numaio {
namespace {

class PaperClaims : public ::testing::Test {
 protected:
  PaperClaims() : testbed_(io::Testbed::dl585()), fio_(testbed_.host()) {}

  std::vector<double> io_per_node(const std::string& engine) {
    std::vector<double> out;
    for (topo::NodeId node = 0; node < 8; ++node) {
      io::FioJob j;
      j.devices = testbed_.devices().for_engine(engine);
      j.engine = engine;
      j.cpu_node = node;
      j.num_streams = 4;
      out.push_back(fio_.run(j).aggregate);
    }
    return out;
  }

  io::Testbed testbed_;
  io::FioRunner fio_;
};

TEST_F(PaperClaims, MemcpyModelRanksEveryWriteEngineWell) {
  // Table IV's claim: the device-write memcpy model lands the same
  // classes as TCP send, RDMA_WRITE and SSD write.
  const auto model =
      model::build_iomodel(testbed_.host(), 7,
                           model::Direction::kDeviceWrite);
  for (const char* engine :
       {io::kTcpSend, io::kRdmaWrite, io::kSsdWrite}) {
    const auto io = io_per_node(engine);
    // TCP's rank agreement is dented by the node-7 interrupt-contention
    // inversion (the paper's own Fig-5 observation that node 6 beats the
    // local node), so the full-vector threshold is modest; the offloaded
    // engines agree strongly.
    const double floor =
        std::string(engine) == io::kTcpSend ? 0.40 : 0.55;
    EXPECT_GT(model::spearman(model.bw, io), floor) << engine;
    // The binary separation that matters operationally: the model's
    // bottom class ({2,3}) is the measurement's bottom class.
    const double weakest_model = std::min(model.bw[2], model.bw[3]);
    for (topo::NodeId i : {0, 1, 4, 5, 6, 7}) {
      EXPECT_GT(model.bw[static_cast<std::size_t>(i)], weakest_model)
          << engine;
      EXPECT_GT(io[static_cast<std::size_t>(i)],
                std::min(io[2], io[3]) - 1e-9)
          << engine;
    }
  }
}

TEST_F(PaperClaims, MemcpyModelRanksReadEnginesWell) {
  const auto model = model::build_iomodel(testbed_.host(), 7,
                                          model::Direction::kDeviceRead);
  for (const char* engine : {io::kRdmaRead, io::kSsdRead}) {
    const auto io = io_per_node(engine);
    EXPECT_GT(model::spearman(model.bw, io), 0.6) << engine;
  }
}

TEST_F(PaperClaims, StreamModelsFailForRdmaRead) {
  // §IV-B2: RDMA_READ "does not match with neither the CPU centric model
  // nor memory centric model".
  const auto cpu_model = mem::cpu_centric(testbed_.host(), 7);
  const auto mem_model = mem::memory_centric(testbed_.host(), 7);
  const auto rdma_read = io_per_node(io::kRdmaRead);

  const auto read_model = model::build_iomodel(
      testbed_.host(), 7, model::Direction::kDeviceRead);
  const double proposed = model::spearman(read_model.bw, rdma_read);
  EXPECT_GT(proposed, model::spearman(cpu_model, rdma_read) + 0.3);
  EXPECT_GT(proposed, model::spearman(mem_model, rdma_read) + 0.3);
}

TEST_F(PaperClaims, StreamRanksZeroOneAboveTwoThreeButRdmaReadInverts) {
  // The paper's sharpest mismatch example, in one assertion.
  const auto mem_model = mem::memory_centric(testbed_.host(), 7);
  const auto rdma_read = io_per_node(io::kRdmaRead);
  EXPECT_GT((mem_model[0] + mem_model[1]) / 2,
            (mem_model[2] + mem_model[3]) / 2 * 1.3);
  EXPECT_LT((rdma_read[0] + rdma_read[1]) / 2,
            (rdma_read[2] + rdma_read[3]) / 2 * 0.9);
}

TEST_F(PaperClaims, TcpSendFollowsCpuCentricShape) {
  // §IV-B1: "TCP send performance ... is close to that in the CPU centric
  // model" — at least in rank terms, and closer than the memory-centric
  // alternative is to RDMA_READ-style inversions.
  const auto cpu_model = mem::cpu_centric(testbed_.host(), 7);
  const auto tcp_send = io_per_node(io::kTcpSend);
  EXPECT_GT(model::spearman(cpu_model, tcp_send), 0.4);
  // Excluding the interrupt-loaded device node itself, the agreement is
  // strong.
  std::vector<double> cpu_no7(cpu_model.begin(), cpu_model.end() - 1);
  std::vector<double> tcp_no7(tcp_send.begin(), tcp_send.end() - 1);
  EXPECT_GT(model::spearman(cpu_no7, tcp_no7), 0.6);
}

TEST_F(PaperClaims, HalvedCharacterizationCostStillPredicts) {
  // §V-A cost reduction: probing one node per class must reproduce the
  // full sweep's class averages.
  const auto model = model::build_iomodel(testbed_.host(), 7,
                                          model::Direction::kDeviceRead);
  const auto classes = model::classify(model, testbed_.machine().topology());
  const auto reps = model::representative_nodes(classes);
  EXPECT_EQ(reps.size(), 4u);  // 4 probes instead of 8: cost halves

  const auto full = io_per_node(io::kRdmaRead);
  for (std::size_t c = 0; c < reps.size(); ++c) {
    io::FioJob j;
    j.devices = {&testbed_.nic()};
    j.engine = io::kRdmaRead;
    j.cpu_node = reps[c];
    j.num_streams = 4;
    const double probe = fio_.run(j).aggregate;
    for (topo::NodeId member : classes.classes[c]) {
      EXPECT_NEAR(full[static_cast<std::size_t>(member)], probe,
                  0.05 * probe)
          << "class " << c << " member " << member;
    }
  }
}

TEST_F(PaperClaims, WholeWorkflowIsDeterministic) {
  io::Testbed other = io::Testbed::dl585();
  const auto m1 = model::build_iomodel(testbed_.host(), 7,
                                       model::Direction::kDeviceWrite);
  const auto m2 = model::build_iomodel(other.host(), 7,
                                       model::Direction::kDeviceWrite);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(m1.bw[i], m2.bw[i]);
}

}  // namespace
}  // namespace numaio
