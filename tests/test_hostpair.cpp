// HostPair: both network endpoints fully simulated.
#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/hostpair.h"
#include "simcore/status.h"

namespace numaio::io {
namespace {

class HostPairTest : public ::testing::Test {
 protected:
  HostPairTest() : pair_(HostPair::dl585()) {}

  double run(const std::string& engine, NodeId a, NodeId b,
             int streams = 4) {
    HostPair::NetJob j;
    j.engine = engine;
    j.local_node = a;
    j.peer_node = b;
    j.num_streams = streams;
    return pair_.run(j).aggregate;
  }

  HostPair pair_;
};

TEST_F(HostPairTest, SixteenNodesTwoNicsOneWire) {
  EXPECT_EQ(pair_.machine().num_nodes(), 16);
  EXPECT_EQ(pair_.nic_a().attach_node(), 7);
  EXPECT_EQ(pair_.nic_b().attach_node(), 15);
  EXPECT_EQ(pair_.peer(7), 15);
  EXPECT_EQ(pair_.machine().profile().name, "hp-dl585-g7-pair");
}

TEST_F(HostPairTest, HostBFabricMirrorsHostA) {
  const auto& m = pair_.machine();
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(m.path(i, j).dma_cap,
                       m.path(pair_.peer(i), pair_.peer(j)).dma_cap);
    }
  }
  // Cross-host coherent paths are deliberately absurd.
  EXPECT_LT(m.path(0, pair_.peer(0)).dma_cap, 0.1);
}

TEST_F(HostPairTest, OptimalBothEndsMatchesSingleHostModel) {
  // With good bindings at both ends the chained model reproduces the
  // single-host engine calibration (send-side ceiling binds). The
  // genuinely optimal peer is its node 6 — B's 7->6 inbound path is the
  // short one, just as on host A.
  EXPECT_NEAR(run(kRdmaWrite, 5, 6), 23.3, 0.2);
  EXPECT_NEAR(run(kTcpSend, 5, 6), 20.9, 0.3);
}

TEST_F(HostPairTest, TargetSideMemoryPlacementMatters) {
  // Writing into B's node-5 memory rides B's 910 ns 7->5 inbound path:
  // the same directional asymmetry Table V shows for reads on host A.
  EXPECT_NEAR(run(kRdmaWrite, 5, 5), 17100.0 / 910.0, 0.2);
}

TEST_F(HostPairTest, WeakSendSideBindsEndToEnd) {
  EXPECT_NEAR(run(kRdmaWrite, 2, 5), 17.1, 0.2);
  EXPECT_NEAR(run(kTcpSend, 2, 6), 16.2, 0.3);
  // The send side is the peer's: a node-2 peer caps a node-7 receiver
  // that sinks 20.0 Gbps from a peer on node 6.
  EXPECT_NEAR(run(kTcpRecv, 7, 2), 16.2, 0.3);
}

TEST_F(HostPairTest, WeakReceiveSideBindsEndToEnd) {
  // Peer bound to its node 4: the receive-side floor caps the transfer.
  EXPECT_NEAR(run(kTcpSend, 5, 4), 14.4, 0.3);
  // One-sided write into B's node-0 memory: the target-side tag pool over
  // B's 910 ns path sustains 17100/910 = 18.8 Gbps.
  EXPECT_NEAR(run(kRdmaWrite, 5, 0), 18.8, 0.3);
}

TEST_F(HostPairTest, BothEndsWeakTakeTheMinimum) {
  const double both = run(kTcpSend, 2, 4);
  EXPECT_NEAR(both, std::min(16.2, 14.4), 0.4);
}

TEST_F(HostPairTest, FullDuplexSharesHostResourcesNotTheWire) {
  // A sends while A also receives: the two directions use different wire
  // resources, different NIC engines, but share host CPUs/fabric.
  HostPair::NetJob send;
  send.engine = kRdmaWrite;
  send.local_node = 5;
  send.peer_node = 5;
  send.num_streams = 4;
  HostPair::NetJob recv = send;
  recv.engine = kRdmaRead;
  const auto results = pair_.run_concurrent(
      std::vector<HostPair::NetJob>{send, recv});
  // Send: B's inbound 7->5 path (18.8); read: A's own 7->5 window (18.3,
  // the Table V class-3 value). Separate RX/TX pools keep them
  // independent.
  EXPECT_NEAR(results[0].aggregate, 18.8, 0.3);
  EXPECT_NEAR(results[1].aggregate, 18.3, 0.3);
  for (const FioResult& result : results) {
    ASSERT_EQ(result.streams.size(), 4u);
    for (const FioStreamStats& stream : result.streams) {
      EXPECT_EQ(stream.bytes_moved, send.bytes_per_stream);
    }
  }
}

TEST_F(HostPairTest, FullDuplexTcpContendsOnCpu) {
  // TCP send + receive on the same binding node burn its CPU twice over.
  HostPair::NetJob send;
  send.engine = kTcpSend;
  send.local_node = 5;
  send.peer_node = 6;
  send.num_streams = 4;
  HostPair::NetJob recv = send;
  recv.engine = kTcpRecv;
  const auto results = pair_.run_concurrent(
      std::vector<HostPair::NetJob>{send, recv});
  const double total = results[0].aggregate + results[1].aggregate;
  // cpu(5) capacity 28 with weight 1.0/Gbps on each direction: the sum
  // cannot exceed ~28 even though each direction alone reaches ~21.
  EXPECT_LT(total, 29.0);
  EXPECT_GT(total, 26.0);
}

TEST_F(HostPairTest, PcieCapsConcurrentEnginesBeforeTheWire) {
  // TCP send and RDMA write both push A->B: their ceilings sum to 44.2,
  // the wire carries 37.6, but the NIC's PCIe Gen2 x8 link (32 Gbps of
  // data) binds first — §IV-B1's "theoretical performance limit" made
  // operational.
  HostPair::NetJob tcp;
  tcp.engine = kTcpSend;
  tcp.local_node = 5;
  tcp.peer_node = 6;
  tcp.num_streams = 4;
  HostPair::NetJob rdma = tcp;
  rdma.engine = kRdmaWrite;
  const auto results = pair_.run_concurrent(
      std::vector<HostPair::NetJob>{tcp, rdma});
  const double total = results[0].aggregate + results[1].aggregate;
  EXPECT_NEAR(total, 32.0, 0.5);
  EXPECT_LT(total, 37.6);
}

// Every job is checked before any buffer or flow exists, even when a
// good job precedes the bad one. A node outside a host once read past
// the per-node tables (peer_node 8 crashed; local_node 8 ran at 0 Gbps).
TEST_F(HostPairTest, RejectsNonNetworkEngines) {
  HostPair::NetJob good;
  good.num_streams = 4;
  HostPair::NetJob ssd = good;
  ssd.engine = "ssd_write";
  EXPECT_THROW(pair_.run(ssd), std::invalid_argument);
  HostPair::NetJob no_stream = good;
  no_stream.num_streams = 0;
  for (const HostPair::NetJob& bad : {ssd, no_stream}) {
    EXPECT_THROW(pair_.run_concurrent(std::vector{good, bad}),
                 std::invalid_argument);
  }
  for (const bool peer_side : {false, true}) {
    const std::string field = peer_side ? "peer_node" : "local_node";
    for (const NodeId node : {8, -1, 12}) {
      HostPair::NetJob bad = good;
      (peer_side ? bad.peer_node : bad.local_node) = node;
      try {
        pair_.run_concurrent(std::vector{good, bad});
        ADD_FAILURE() << "accepted " << field << " " << node;
      } catch (const StatusError& e) {
        EXPECT_EQ(e.code(), StatusCode::kUsage);
        const std::string what = e.what();
        EXPECT_NE(what.find("job 1"), std::string::npos) << what;
        EXPECT_NE(what.find(field), std::string::npos) << what;
      }
    }
  }
}

// A rejected run once kept the good job's flows and buffers, halving
// every later run on the pair (5 -> 6 read 10.45 Gbps, not 20.90).
TEST_F(HostPairTest, MemoryReleasedOnBothHosts) {
  const auto free_bytes = [this] {
    std::vector<sim::Bytes> free;
    for (NodeId n = 0; n < pair_.machine().num_nodes(); ++n) {
      free.push_back(pair_.host().node_free_bytes(n));
    }
    return free;
  };
  const std::vector<sim::Bytes> before = free_bytes();
  run(kTcpSend, 5, 6);
  EXPECT_EQ(free_bytes(), before);

  const HostPair::NetJob good{kTcpSend, 5, 6, 4};
  HostPair::NetJob bad = good;
  bad.engine = "ssd_read";
  EXPECT_THROW(pair_.run_concurrent(std::vector{good, bad}),
               std::invalid_argument);
  bad = good;
  bad.peer_node = 8;
  EXPECT_THROW(pair_.run_concurrent(std::vector{good, bad}), StatusError);
  EXPECT_EQ(free_bytes(), before);
  EXPECT_EQ(pair_.machine().solver().live_flow_count(), 0u);
  const double fresh = HostPair::dl585().run(good).aggregate;
  EXPECT_NEAR(fresh, 20.9, 0.01);
  EXPECT_EQ(pair_.run(good).aggregate, fresh);
}

// A full binding node spills a buffer onto another node of the same host.
// The fallback once took the most-free node of either host: with node 5
// nearly full and one page gone from each other node of host A, host A's
// buffers landed on host B's nodes 8-11, behind the near-zero cross-host
// coherent paths, and the job read 0.0000 Gbps over 2.1e6 simulated s.
TEST_F(HostPairTest, BuffersStayOnTheirOwnHost) {
  nm::Host& host = pair_.host();
  std::vector<nm::Buffer> fill;
  fill.push_back(host.alloc_on_node(host.node_free_bytes(5) - sim::kMiB, 5));
  for (NodeId n = 0; n < 8; ++n) {
    if (n != 5) fill.push_back(host.alloc_on_node(4 * sim::kKiB, n));
  }
  const FioResult result =
      pair_.run(HostPair::NetJob{kTcpSend, 5, 6, 4, sim::kGiB});
  ASSERT_EQ(result.streams.size(), 4u);
  for (const FioStreamStats& stream : result.streams) {
    EXPECT_GE(stream.mem_node, 0);
    EXPECT_LT(stream.mem_node, 8);
  }
  EXPECT_GT(result.aggregate, 14.0);
  for (nm::Buffer& buffer : fill) host.free(buffer);
}

// A host without room for a stream's buffer fails the run with
// std::bad_alloc before any transfer starts, and takes nothing: a failed
// allocation part-way through once left the started transfers' flows in
// the solver.
TEST_F(HostPairTest, FullHostThrowsAndLeavesNoTrace) {
  nm::Host& host = pair_.host();
  const auto free_bytes = [&host] {
    std::vector<sim::Bytes> free;
    for (NodeId n = 0; n < 16; ++n) free.push_back(host.node_free_bytes(n));
    return free;
  };
  // `room` left on each node of host A (nodes 0-7) or host B (8-15).
  const auto fill_host = [&host](NodeId first, sim::Bytes room) {
    std::vector<nm::Buffer> fill;
    for (NodeId n = first; n < first + 8; ++n) {
      fill.push_back(host.alloc_on_node(host.node_free_bytes(n) - room, n));
    }
    return fill;
  };
  const double fresh =
      HostPair::dl585().run(HostPair::NetJob{kTcpSend, 5, 6, 4}).aggregate;
  // Host A full: the first buffer fails.
  std::vector<nm::Buffer> fill = fill_host(0, sim::kMiB);
  std::vector<sim::Bytes> before = free_bytes();
  EXPECT_THROW(pair_.run(HostPair::NetJob{kTcpSend, 5, 6, 4}),
               std::bad_alloc);
  EXPECT_EQ(free_bytes(), before);
  EXPECT_EQ(pair_.machine().solver().live_flow_count(), 0u);
  for (nm::Buffer& buffer : fill) host.free(buffer);
  // Host B holds one buffer per node: the ninth stream fails.
  fill = fill_host(8, 3 * sim::kMiB);
  before = free_bytes();
  EXPECT_THROW(pair_.run(HostPair::NetJob{kTcpSend, 5, 6, 12}),
               std::bad_alloc);
  EXPECT_EQ(free_bytes(), before);
  EXPECT_EQ(pair_.machine().solver().live_flow_count(), 0u);
  for (nm::Buffer& buffer : fill) host.free(buffer);

  EXPECT_NEAR(fresh, 20.9, 0.01);
  EXPECT_EQ(pair_.run(HostPair::NetJob{kTcpSend, 5, 6, 4}).aggregate, fresh);
}

}  // namespace
}  // namespace numaio::io
