#include "io/fio.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "io/testbed.h"
#include "nm/policy.h"
#include "simcore/status.h"

namespace numaio::io {
namespace {

class FioTest : public ::testing::Test {
 protected:
  FioTest() : testbed_(Testbed::dl585()), fio_(testbed_.host()) {}

  FioJob nic_job(const std::string& engine, NodeId node, int streams) {
    FioJob j;
    j.devices = {&testbed_.nic()};
    j.engine = engine;
    j.cpu_node = node;
    j.num_streams = streams;
    return j;
  }
  FioJob ssd_job(const std::string& engine, NodeId node, int streams) {
    FioJob j;
    j.devices = testbed_.ssds();
    j.engine = engine;
    j.cpu_node = node;
    j.num_streams = streams;
    return j;
  }

  Testbed testbed_;
  FioRunner fio_;
};

// --- Table IV: device-write side at 4 parallel streams --------------------

TEST_F(FioTest, TcpSendClassValues) {
  EXPECT_NEAR(fio_.run(nic_job(kTcpSend, 0, 4)).aggregate, 20.9, 0.3);
  EXPECT_NEAR(fio_.run(nic_job(kTcpSend, 2, 4)).aggregate, 16.2, 0.2);
  EXPECT_NEAR(fio_.run(nic_job(kTcpSend, 3, 4)).aggregate, 16.2, 0.2);
}

TEST_F(FioTest, RdmaWriteClassValues) {
  EXPECT_NEAR(fio_.run(nic_job(kRdmaWrite, 7, 4)).aggregate, 23.3, 0.2);
  EXPECT_NEAR(fio_.run(nic_job(kRdmaWrite, 0, 4)).aggregate, 23.3, 0.2);
  EXPECT_NEAR(fio_.run(nic_job(kRdmaWrite, 2, 4)).aggregate, 17.1, 0.2);
}

TEST_F(FioTest, SsdWriteClassValues) {
  EXPECT_NEAR(fio_.run(ssd_job(kSsdWrite, 7, 4)).aggregate, 28.8, 0.5);
  EXPECT_NEAR(fio_.run(ssd_job(kSsdWrite, 0, 4)).aggregate, 28.5, 0.6);
  EXPECT_NEAR(fio_.run(ssd_job(kSsdWrite, 2, 4)).aggregate, 18.0, 0.3);
}

// --- Table V: device-read side ---------------------------------------------

TEST_F(FioTest, TcpRecvClassValues) {
  EXPECT_NEAR(fio_.run(nic_job(kTcpRecv, 6, 4)).aggregate, 21.8, 0.3);
  EXPECT_NEAR(fio_.run(nic_job(kTcpRecv, 2, 4)).aggregate, 20.0, 0.3);
  EXPECT_NEAR(fio_.run(nic_job(kTcpRecv, 0, 4)).aggregate, 20.6, 0.3);
  EXPECT_NEAR(fio_.run(nic_job(kTcpRecv, 4, 4)).aggregate, 14.4, 0.3);
}

TEST_F(FioTest, RdmaReadClassValues) {
  EXPECT_NEAR(fio_.run(nic_job(kRdmaRead, 7, 4)).aggregate, 22.0, 0.2);
  EXPECT_NEAR(fio_.run(nic_job(kRdmaRead, 2, 4)).aggregate, 22.0, 0.2);
  EXPECT_NEAR(fio_.run(nic_job(kRdmaRead, 0, 4)).aggregate, 18.3, 0.2);
  EXPECT_NEAR(fio_.run(nic_job(kRdmaRead, 4, 4)).aggregate, 16.1, 0.2);
}

TEST_F(FioTest, SsdReadClassValues) {
  EXPECT_NEAR(fio_.run(ssd_job(kSsdRead, 7, 4)).aggregate, 34.7, 0.4);
  EXPECT_NEAR(fio_.run(ssd_job(kSsdRead, 2, 4)).aggregate, 33.1, 0.4);
  EXPECT_NEAR(fio_.run(ssd_job(kSsdRead, 0, 4)).aggregate, 30.1, 0.4);
  EXPECT_NEAR(fio_.run(ssd_job(kSsdRead, 4, 4)).aggregate, 18.5, 0.4);
}

// --- Qualitative findings ---------------------------------------------------

TEST_F(FioTest, RdmaReadInvertsStreamOrdering) {
  // §IV-B2: RDMA_READ on {0,1} is 15-18.4% *worse* than on {2,3} even
  // though STREAM ranks {0,1} far above {2,3}.
  const double r0 = fio_.run(nic_job(kRdmaRead, 0, 4)).aggregate;
  const double r2 = fio_.run(nic_job(kRdmaRead, 2, 4)).aggregate;
  const double drop = (r2 - r0) / r2;
  EXPECT_GT(drop, 0.14);
  EXPECT_LT(drop, 0.20);
}

TEST_F(FioTest, TcpNode6BeatsNode7) {
  // §IV-B1: interrupt handling on node 7 makes its neighbor the better
  // binding.
  const double n6 = fio_.run(nic_job(kTcpSend, 6, 4)).aggregate;
  const double n7 = fio_.run(nic_job(kTcpSend, 7, 4)).aggregate;
  EXPECT_GT(n6, n7);
}

TEST_F(FioTest, RdmaImmuneToDeviceNodeContention) {
  const double n6 = fio_.run(nic_job(kRdmaWrite, 6, 4)).aggregate;
  const double n7 = fio_.run(nic_job(kRdmaWrite, 7, 4)).aggregate;
  EXPECT_NEAR(n6, n7, 0.1);
}

TEST_F(FioTest, TcpGrowsUntilFourStreams) {
  const double s1 = fio_.run(nic_job(kTcpSend, 5, 1)).aggregate;
  const double s2 = fio_.run(nic_job(kTcpSend, 5, 2)).aggregate;
  const double s4 = fio_.run(nic_job(kTcpSend, 5, 4)).aggregate;
  const double s8 = fio_.run(nic_job(kTcpSend, 5, 8)).aggregate;
  EXPECT_NEAR(s2, 2.0 * s1, 0.1);
  EXPECT_GT(s4, 1.5 * s2);
  EXPECT_NEAR(s8, s4, 0.08 * s4);  // plateau with jitter
}

TEST_F(FioTest, RdmaSaturatesAtTwoStreams) {
  const double s1 = fio_.run(nic_job(kRdmaWrite, 5, 1)).aggregate;
  const double s2 = fio_.run(nic_job(kRdmaWrite, 5, 2)).aggregate;
  const double s4 = fio_.run(nic_job(kRdmaWrite, 5, 4)).aggregate;
  EXPECT_LT(s1, 12.0);
  EXPECT_NEAR(s2, 23.3, 0.1);
  EXPECT_NEAR(s4, 23.3, 0.1);
}

TEST_F(FioTest, RdmaIsStableAtHighStreamCounts) {
  // Fig 6 vs Fig 5: RDMA bandwidth "is more stable than that of TCP".
  const double s4 = fio_.run(nic_job(kRdmaWrite, 5, 4)).aggregate;
  const double s16 = fio_.run(nic_job(kRdmaWrite, 5, 16)).aggregate;
  EXPECT_NEAR(s16, s4, 0.01 * s4);
}

TEST_F(FioTest, SsdGrowsFromTwoToFourProcesses) {
  const double p2 = fio_.run(ssd_job(kSsdRead, 7, 2)).aggregate;
  const double p4 = fio_.run(ssd_job(kSsdRead, 7, 4)).aggregate;
  EXPECT_GT(p4, 1.3 * p2);
}

TEST_F(FioTest, StreamsRoundRobinAcrossSsdCards) {
  const FioResult r = fio_.run(ssd_job(kSsdWrite, 7, 4));
  ASSERT_EQ(r.streams.size(), 4u);
  EXPECT_EQ(r.streams[0].device, testbed_.ssds()[0]);
  EXPECT_EQ(r.streams[1].device, testbed_.ssds()[1]);
  EXPECT_EQ(r.streams[2].device, testbed_.ssds()[0]);
}

TEST_F(FioTest, BuffersAreLocalToTheBindingNode) {
  const FioResult r = fio_.run(nic_job(kRdmaWrite, 3, 2));
  for (const auto& s : r.streams) EXPECT_EQ(s.mem_node, 3);
}

TEST_F(FioTest, DeterministicRepeats) {
  const double a = fio_.run(nic_job(kTcpSend, 5, 8)).aggregate;
  const double b = fio_.run(nic_job(kTcpSend, 5, 8)).aggregate;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(FioTest, ConcurrentMixedJobsShareTheEngine) {
  // The Eq-1 scenario: 2 streams node 2 + 2 streams node 0, RDMA_READ.
  FioJob a = nic_job(kRdmaRead, 2, 2);
  FioJob b = nic_job(kRdmaRead, 0, 2);
  const auto results = fio_.run_concurrent({a, b});
  const double combined = combined_aggregate(results);
  // Between the class-3 value (18.3) and the device cap (22.0), and below
  // the arithmetic mix (~20.15): heterogeneous queues drag the engine.
  EXPECT_GT(combined, 18.3);
  EXPECT_LT(combined, 20.15);
}

TEST_F(FioTest, CombinedAggregateOfOneJobIsItsAggregate) {
  const auto results = fio_.run_concurrent({nic_job(kRdmaWrite, 5, 2)});
  EXPECT_NEAR(combined_aggregate(results), results[0].aggregate, 1e-9);
}

TEST_F(FioTest, FreeMemoryRestoredAfterRun) {
  const auto before = testbed_.host().node_free_bytes(3);
  fio_.run(nic_job(kTcpSend, 3, 4));
  EXPECT_EQ(testbed_.host().node_free_bytes(3), before);
}

TEST_F(FioTest, InterleavedBuffersCountInNumastat) {
  const nm::AllocStats before = testbed_.host().stats();
  FioJob j = nic_job(kRdmaWrite, 3, 2);
  j.mem_policy = nm::parse_numactl("--interleave=0,1");
  fio_.run(j);
  const nm::AllocStats& after = testbed_.host().stats();
  EXPECT_GT(after.node(0).interleave_hit, before.node(0).interleave_hit);
  EXPECT_GT(after.node(1).interleave_hit, before.node(1).interleave_hit);
  EXPECT_EQ(after.node(3).numa_hit, before.node(3).numa_hit);
}

TEST_F(FioTest, LocalBuffersCountAsNumaHits) {
  const std::uint64_t before = testbed_.host().stats().node(3).numa_hit;
  fio_.run(nic_job(kRdmaWrite, 3, 2));
  EXPECT_EQ(testbed_.host().stats().node(3).numa_hit, before + 2);
}

TEST_F(FioTest, RejectsEmptyDeviceList) {
  FioJob j;
  j.engine = kTcpSend;
  EXPECT_THROW(fio_.run(j), std::invalid_argument);
}

TEST_F(FioTest, RejectsZeroStreams) {
  FioJob j = nic_job(kTcpSend, 0, 0);
  EXPECT_THROW(fio_.run(j), std::invalid_argument);
}

// Per-node tables only assert their bound, so an unchecked node read out
// of bounds in release builds. Every run form rejects it before touching
// the host, even when a valid job precedes it. Memory-policy nodes were
// once left unchecked: --membind=8 read past the free-bytes table.
TEST_F(FioTest, CpuNodeOutsideTheHostIsAUsageError) {
  FioJob peer = nic_job(kTcpSend, 2, 1);
  peer.peer_node = 8;
  const auto with_policy = [this](const std::string& spec) {
    FioJob j = nic_job(kRdmaWrite, 2, 1);
    j.mem_policy = nm::parse_numactl(spec);
    return j;
  };
  const sim::FlowSolver& solver = testbed_.machine().solver();
  const std::size_t resources = solver.resource_count();
  const sim::Bytes free = testbed_.host().node_free_bytes(2);
  for (const FioJob& bad :
       {nic_job(kRdmaWrite, 8, 4), nic_job(kRdmaWrite, -1, 4), peer,
        with_policy("--membind=8"), with_policy("--interleave=0,8"),
        with_policy("--preferred=8"), with_policy("--cpunodebind=8")}) {
    const std::vector<FioJob> jobs{nic_job(kRdmaWrite, 2, 2), bad};
    try {
      fio_.run_concurrent(jobs);
      ADD_FAILURE() << "accepted cpu_node " << bad.cpu_node << " policy '"
                    << nm::to_numactl_string(bad.mem_policy) << "'";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kUsage);
      EXPECT_NE(std::string(e.what()).find("fio job 1"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("nodes 0-7"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(fio_.run(bad), StatusError);
    EXPECT_THROW(fio_.run_timed({TimedJob{bad, 0.0}}), StatusError);
    EXPECT_EQ(solver.resource_count(), resources);
    EXPECT_EQ(solver.live_flow_count(), 0u);
    EXPECT_EQ(testbed_.host().node_free_bytes(2), free);
  }
}

// Every job is checked before any buffer exists: a bad job after a good
// one once left the good job's buffers (8 MiB on node 3) allocated.
TEST_F(FioTest, RejectedRunLeavesEveryNodesMemory) {
  const auto free_bytes = [this] {
    std::vector<sim::Bytes> free;
    for (NodeId n = 0; n < testbed_.machine().num_nodes(); ++n) {
      free.push_back(testbed_.host().node_free_bytes(n));
    }
    return free;
  };
  const std::vector<sim::Bytes> before = free_bytes();
  const FioJob good = nic_job(kTcpSend, 3, 4);
  EXPECT_THROW(fio_.run_concurrent({good, nic_job("bogus", 5, 4)}),
               std::out_of_range);
  EXPECT_THROW(fio_.run_concurrent({good, nic_job(kTcpSend, 5, 0)}),
               std::invalid_argument);
  EXPECT_THROW(fio_.run_concurrent({good, ssd_job(kSsdRead, 5, 1)}),
               std::invalid_argument);
  // Node 3 holds three of these 1 GiB buffers, not eight; the three
  // taken before the fourth failed were once kept.
  FioJob hungry = nic_job(kRdmaWrite, 3, 8);
  hungry.mem_policy = nm::parse_numactl("--membind=3");
  hungry.block_size = 512 * sim::kMiB;
  hungry.iodepth = 2;
  EXPECT_THROW(fio_.run_concurrent({good, hungry}), std::bad_alloc);
  EXPECT_EQ(free_bytes(), before);
}

// A peer-bound job's cap resource is made once per job slot and reused,
// with the later job's cap; it once grew the solver by one per run.
TEST_F(FioTest, PeerBoundRunsReuseTheirPeerResource) {
  FioJob j = nic_job(kTcpRecv, 7, 4);
  j.peer_node = 2;
  const sim::FlowSolver& solver = testbed_.machine().solver();
  const double first = fio_.run(j).aggregate;
  const std::size_t resources = solver.resource_count();
  for (int i = 0; i < 9; ++i) EXPECT_EQ(fio_.run(j).aggregate, first);
  EXPECT_EQ(solver.resource_count(), resources);
  j.peer_node = 5;
  const double reused = fio_.run(j).aggregate;
  EXPECT_EQ(solver.resource_count(), resources);
  FioRunner fresh(testbed_.host());
  EXPECT_EQ(fresh.run(j).aggregate, reused);
  EXPECT_NE(reused, first);
  // Node 2 sinks less than node 7 sends: the peer binding, not the local
  // host, is the limit.
  EXPECT_LT(first, fio_.run(nic_job(kTcpRecv, 7, 4)).aggregate);
}

TEST_F(FioTest, SsdJobsNeedAStreamPerCard) {
  // §IV-B3: "the total number of test processes is at least two".
  EXPECT_THROW(fio_.run(ssd_job(kSsdWrite, 7, 1)), std::invalid_argument);
}

TEST_F(FioTest, LowerIodepthLowersSsdThroughput) {
  FioJob deep = ssd_job(kSsdRead, 7, 2);
  FioJob shallow = deep;
  shallow.iodepth = 4;
  EXPECT_GT(fio_.run(deep).aggregate, 1.5 * fio_.run(shallow).aggregate);
}

// A stall aborts the attempts in flight on its device; an attempt that is
// only waiting out its backoff has not started and is left alone. The
// first stall (2.0 s) aborts attempt 1, whose retry waits to start at
// 3.0 s; the second stall (2.5 s) opens during that wait.
TEST_F(FioTest, DeviceStallLeavesAPendingAttemptAlone) {
  faults::FaultPlan plan;
  for (const sim::Ns start : {2.0e9, 2.5e9}) {
    faults::FaultEvent stall;
    stall.kind = faults::FaultKind::kDeviceStall;
    stall.device = 0;
    stall.start = start;
    stall.duration = 0.1e9;
    plan.add(stall);
  }
  faults::FaultInjector injector(testbed_.machine(), std::move(plan));
  injector.register_device(testbed_.nic().name(),
                           testbed_.nic().attach_node(),
                           testbed_.nic().fault_resources());
  FioJob job = nic_job(kRdmaRead, 7, 1);
  job.bytes_per_stream = 40 * sim::kGiB;
  job.retry.timeout = 60.0e9;
  job.retry.base_backoff = 1.0e9;
  job.retry.jitter_frac = 0.0;
  fio_.set_fault_injector(&injector);
  const FioResult result = fio_.run(job);
  ASSERT_EQ(result.streams.size(), 1u);
  EXPECT_TRUE(result.streams.front().outcome.ok);
  EXPECT_EQ(result.streams.front().bytes_moved, 40 * sim::kGiB);
  EXPECT_EQ(result.total_retries, 1);
  // Attempt 2 starts at 3.0 s, not at 4.5 s after a second backoff.
  EXPECT_NEAR(result.duration, 30.1e9, 0.05e9);
}

// Property sweep: every engine x binding yields a positive aggregate that
// never exceeds the engine's total ceiling. The engine is held by value:
// the case names are printed from the parameter, and a const char* would
// print its (per-process, ASLR-randomised) address instead of the name.
class EngineBindingSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineBindingSweep, WithinPhysicalBounds) {
  Testbed tb = Testbed::dl585();
  FioRunner fio(tb.host());
  const auto [engine, node] = GetParam();
  FioJob j;
  j.devices = tb.devices().for_engine(engine);
  j.engine = engine;
  j.cpu_node = node;
  j.num_streams = 4;
  const double agg = fio.run(j).aggregate;
  EXPECT_GT(agg, 5.0);
  double ceiling = 0.0;
  for (const auto* d : j.devices) ceiling += d->engine(engine).device_cap;
  EXPECT_LE(agg, ceiling + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllNodes, EngineBindingSweep,
    ::testing::Combine(::testing::Values(kTcpSend, kTcpRecv, kRdmaWrite,
                                         kRdmaRead, kSsdWrite, kSsdRead),
                       ::testing::Range(0, 8)));

}  // namespace
}  // namespace numaio::io
