// Tests for the I/O-mode, IRQ-steering and peer-binding extensions.
#include <gtest/gtest.h>

#include "io/hostpair.h"
#include "io/testbed.h"

namespace numaio::io {
namespace {

class IoModeTest : public ::testing::Test {
 protected:
  IoModeTest() : tb_(Testbed::dl585()), fio_(tb_.host()) {}

  double run_ssd(NodeId node, IoMode mode, int iodepth = 16) {
    FioJob j;
    j.devices = tb_.ssds();
    j.engine = kSsdRead;
    j.cpu_node = node;
    j.num_streams = 4;
    j.io_mode = mode;
    j.iodepth = iodepth;
    return fio_.run(j).aggregate;
  }

  double run_nic(const std::string& engine, NodeId node) {
    FioJob j;
    j.devices = {&tb_.nic()};
    j.engine = engine;
    j.cpu_node = node;
    j.num_streams = 4;
    return fio_.run(j).aggregate;
  }

  // The single-host testbed assumes an optimally placed peer; the host
  // pair simulates the peer bound to its node `peer`.
  double run_pair(const std::string& engine, NodeId node, NodeId peer) {
    HostPair::NetJob j;
    j.engine = engine;
    j.local_node = node;
    j.peer_node = peer;
    j.num_streams = 4;
    return pair_.run(j).aggregate;
  }

  Testbed tb_;
  FioRunner fio_;
  HostPair pair_ = HostPair::dl585();
};

// --- §IV-B3: mode observations ---------------------------------------------

TEST_F(IoModeTest, BufferedIsMuchWorseThanDirect) {
  // "regular kernel-buffered read/write operations perform much worse
  // than kernel-bypassed ones".
  const double direct = run_ssd(7, IoMode::kAsyncDirect);
  const double buffered = run_ssd(7, IoMode::kAsyncBuffered);
  EXPECT_LT(buffered, 0.7 * direct);
  EXPECT_GT(buffered, 0.3 * direct);
}

TEST_F(IoModeTest, AsyncBeatsSync) {
  // "asynchronous I/O operations outperform synchronous ones".
  const double async_rate = run_ssd(7, IoMode::kAsyncDirect);
  const double sync_rate = run_ssd(7, IoMode::kSyncDirect);
  EXPECT_LT(sync_rate, 0.5 * async_rate);
}

TEST_F(IoModeTest, SyncBufferedIsWorst) {
  const double rates[] = {
      run_ssd(7, IoMode::kAsyncDirect), run_ssd(7, IoMode::kAsyncBuffered),
      run_ssd(7, IoMode::kSyncDirect), run_ssd(7, IoMode::kSyncBuffered)};
  EXPECT_GT(rates[0], rates[1]);
  EXPECT_GT(rates[1], rates[3]);
  EXPECT_GT(rates[2], rates[3]);
}

TEST_F(IoModeTest, ModesDoNotAffectNetworkEngines) {
  FioJob j;
  j.devices = {&tb_.nic()};
  j.engine = kRdmaWrite;
  j.cpu_node = 5;
  j.num_streams = 4;
  const double direct = fio_.run(j).aggregate;
  j.io_mode = IoMode::kSyncBuffered;
  EXPECT_DOUBLE_EQ(fio_.run(j).aggregate, direct);
}

TEST_F(IoModeTest, SyncEqualsIodepthOne) {
  EXPECT_NEAR(run_ssd(6, IoMode::kSyncDirect, 16),
              run_ssd(6, IoMode::kAsyncDirect, 1), 1e-9);
}

// --- IRQ steering -----------------------------------------------------------

TEST_F(IoModeTest, DefaultIrqNodeIsLocal) {
  EXPECT_EQ(tb_.nic().irq_node(), tb_.nic().attach_node());
}

TEST_F(IoModeTest, SteeringIrqsAwayHelpsTheDeviceNodeBinding) {
  // The node-7 TCP penalty comes from sharing CPUs with the interrupt
  // handler; steering IRQs to node 6 moves the penalty.
  const double before = run_nic(kTcpSend, 7);
  tb_.nic().set_irq_node(6);
  const double after = run_nic(kTcpSend, 7);
  EXPECT_GT(after, before);
  // And now binding on node 6 inherits the contention.
  const double node6 = run_nic(kTcpSend, 6);
  EXPECT_LT(node6, after);
  tb_.nic().set_irq_node(7);
}

TEST_F(IoModeTest, SteeringDoesNotDisturbOffloadedEngines) {
  const double before = run_nic(kRdmaWrite, 7);
  tb_.nic().set_irq_node(3);
  EXPECT_NEAR(run_nic(kRdmaWrite, 7), before, 0.05);
  tb_.nic().set_irq_node(7);
}

// --- peer-host binding ------------------------------------------------------

TEST_F(IoModeTest, OptimalPeerChangesNothing) {
  const double base = run_nic(kTcpSend, 5);
  EXPECT_NEAR(run_pair(kTcpSend, 5, /*peer=*/6), base, 0.2);
}

TEST_F(IoModeTest, BadPeerPlacementCapsTcp) {
  // [3] (cited §I): remote-core placement at *either* end can cost ~30%
  // of TCP bandwidth. Our sender is well placed; the peer receiver on its
  // node 4 (the receive-side floor) drags the transfer to ~14.4 Gbps.
  const double base = run_nic(kTcpSend, 5);
  const double bad_peer = run_pair(kTcpSend, 5, /*peer=*/4);
  EXPECT_NEAR(bad_peer, 14.4, 0.3);
  const double loss = (base - bad_peer) / base;
  EXPECT_GT(loss, 0.25);
  EXPECT_LT(loss, 0.35);
}

TEST_F(IoModeTest, PeerClassesMirrorReceiveModel) {
  // Peer on {2,3} (its TCP-recv residual class) caps below peer on 6.
  const double peer6 = run_pair(kTcpSend, 5, 6);
  const double peer2 = run_pair(kTcpSend, 5, 2);
  EXPECT_GT(peer6, peer2);
}

TEST_F(IoModeTest, RdmaReadWithBadPeerSender) {
  // Our reader pulls from the peer's node-2 memory. One-sided RDMA never
  // schedules the peer's CPU or initiator engine, so the peer's binding
  // costs only its DMA path: the passive NIC's target-side window over
  // the peer's 2->7 path sustains 16.65 Gbps.
  const double base = run_nic(kRdmaRead, 7);
  const double capped = run_pair(kRdmaRead, 7, /*peer=*/2);
  EXPECT_NEAR(base, 22.0, 0.2);
  EXPECT_NEAR(capped, 16.65, 0.2);
}

}  // namespace
}  // namespace numaio::io
