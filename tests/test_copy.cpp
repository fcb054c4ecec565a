#include "mem/copy.h"

#include <gtest/gtest.h>

#include "fabric/calibration.h"

namespace numaio::mem {
namespace {

class CopyTest : public ::testing::Test {
 protected:
  fabric::Machine machine_{fabric::dl585_profile()};
};

TEST_F(CopyTest, StreamingLocalCopyHitsMcLimit) {
  CopyTask t{.threads_node = 7, .src_node = 7, .dst_node = 7,
             .threads = 0, .engine = CopyEngine::kStreaming};
  EXPECT_NEAR(run_copy_alone(machine_, t), 53.5, 1e-9);
}

TEST_F(CopyTest, StreamingRemoteLoadIsFabricBound) {
  // Threads on 7 pulling from node 2: the weak 2->7 direction (26 Gbps).
  CopyTask t{.threads_node = 7, .src_node = 2, .dst_node = 7,
             .threads = 0, .engine = CopyEngine::kStreaming};
  EXPECT_NEAR(run_copy_alone(machine_, t), 26.0, 1e-9);
}

TEST_F(CopyTest, StreamingDirectionMatters) {
  // 7->2 push uses the strong direction.
  CopyTask t{.threads_node = 7, .src_node = 7, .dst_node = 2,
             .threads = 0, .engine = CopyEngine::kStreaming};
  EXPECT_NEAR(run_copy_alone(machine_, t), 50.3, 1e-9);
}

TEST_F(CopyTest, StreamingWindowNeverBindsOnCalibratedHost) {
  // The streaming engine must be capacity-bound everywhere for the
  // DMA-imitation argument to hold.
  for (topo::NodeId i = 0; i < 8; ++i) {
    for (topo::NodeId j = 0; j < 8; ++j) {
      const double window_cap =
          kStreamingWindowBits / machine_.path(i, j).dma_lat;
      EXPECT_GT(window_cap, machine_.path(i, j).dma_cap) << i << "," << j;
    }
  }
}

TEST_F(CopyTest, PioLocalCopyMatchesCalibratedStream) {
  CopyTask t{.threads_node = 4, .src_node = 4, .dst_node = 4,
             .threads = 0, .engine = CopyEngine::kPio};
  EXPECT_NEAR(run_copy_alone(machine_, t), 28.6, 1e-6);
}

TEST_F(CopyTest, PioRemoteMatchesCalibratedStream) {
  CopyTask t{.threads_node = 4, .src_node = 7, .dst_node = 7,
             .threads = 0, .engine = CopyEngine::kPio};
  EXPECT_NEAR(run_copy_alone(machine_, t), 18.45, 1e-6);
}

TEST_F(CopyTest, PioIsMuchSlowerThanStreamingOnTheSamePath) {
  // §IV-C: the PIO and DMA paths differ; remote streaming throughput far
  // exceeds the CPU's load/store loop on every remote path.
  CopyTask pio{.threads_node = 7, .src_node = 0, .dst_node = 7,
               .threads = 0, .engine = CopyEngine::kPio};
  CopyTask stream = pio;
  stream.engine = CopyEngine::kStreaming;
  EXPECT_GT(run_copy_alone(machine_, stream),
            1.3 * run_copy_alone(machine_, pio));
}

TEST_F(CopyTest, ThreadCountScalesCap) {
  CopyTask full{.threads_node = 6, .src_node = 6, .dst_node = 6,
                .threads = 4, .engine = CopyEngine::kPio};
  CopyTask half = full;
  half.threads = 2;
  EXPECT_NEAR(copy_rate_cap(machine_, half),
              copy_rate_cap(machine_, full) / 2.0, 1e-9);
}

TEST_F(CopyTest, ZeroThreadsMeansAllCores) {
  CopyTask all{.threads_node = 6, .src_node = 6, .dst_node = 6,
               .threads = 0, .engine = CopyEngine::kPio};
  CopyTask four = all;
  four.threads = 4;
  EXPECT_DOUBLE_EQ(copy_rate_cap(machine_, all),
                   copy_rate_cap(machine_, four));
}

TEST_F(CopyTest, FewerThreadsLowerBandwidth) {
  // STREAM's PIO copy on a local binding is issue-bound: one thread
  // moves a quarter of what four do.
  CopyTask one{.threads_node = 5, .src_node = 5, .dst_node = 5,
               .threads = 1, .engine = CopyEngine::kPio};
  CopyTask four = one;
  four.threads = 4;
  const double r1 = run_copy_alone(machine_, one);
  const double r4 = run_copy_alone(machine_, four);
  EXPECT_NEAR(r1 * 4.0, r4, 0.05 * r4);
}

TEST_F(CopyTest, PioSplitSrcDstComposesLegs) {
  // Copy with distinct src/dst nodes: rate below either single-node rate
  // because the thread's issue budget is split across legs.
  CopyTask split{.threads_node = 7, .src_node = 0, .dst_node = 4,
                 .threads = 0, .engine = CopyEngine::kPio};
  CopyTask src_only{.threads_node = 7, .src_node = 0, .dst_node = 0,
                    .threads = 0, .engine = CopyEngine::kPio};
  const double r_split = copy_rate_cap(machine_, split);
  const double r_src = copy_rate_cap(machine_, src_only);
  EXPECT_LT(r_split, r_src * (1.0 + kPioStoreFactor));
  EXPECT_GT(r_split, 0.0);
}

TEST_F(CopyTest, TwoConcurrentStreamingCopiesShareThePath) {
  auto& solver = machine_.solver();
  CopyTask t{.threads_node = 7, .src_node = 0, .dst_node = 7,
             .threads = 0, .engine = CopyEngine::kStreaming};
  const auto usages = copy_usages(machine_, t);
  const auto cap = copy_rate_cap(machine_, t);
  const auto f1 = solver.add_flow(usages, cap);
  const auto f2 = solver.add_flow(usages, cap);
  const auto rates = solver.solve();
  EXPECT_NEAR(rates[f1] + rates[f2], 44.0, 1e-9);  // fab(0->7) shared
  solver.remove_flow(f1);
  solver.remove_flow(f2);
}

}  // namespace
}  // namespace numaio::mem
