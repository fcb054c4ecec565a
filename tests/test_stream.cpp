#include "mem/stream.h"

#include <gtest/gtest.h>

#include "io/testbed.h"

namespace numaio::mem {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  fabric::Machine machine_{fabric::dl585_profile()};
  nm::Host host_{machine_};
};

TEST_F(StreamTest, BestIsAtMostTheCalibratedValueAndClose) {
  StreamBenchmark bench(host_);
  const StreamResult r = bench.run(7, 7);
  EXPECT_LE(r.best, 29.0);
  EXPECT_GT(r.best, 29.0 * 0.995);  // max-of-100 sits at the ceiling
}

TEST_F(StreamTest, BestMeanWorstOrdering) {
  StreamBenchmark bench(host_);
  const StreamResult r = bench.run(3, 5);
  EXPECT_GE(r.best, r.mean);
  EXPECT_GE(r.mean, r.worst);
  EXPECT_GT(r.worst, 0.0);
}

TEST_F(StreamTest, PaperAnchorCpu7Mem4) {
  StreamBenchmark bench(host_);
  EXPECT_NEAR(bench.run(7, 4).best, 21.34, 0.15);
}

TEST_F(StreamTest, PaperAnchorCpu4Mem7) {
  StreamBenchmark bench(host_);
  EXPECT_NEAR(bench.run(4, 7).best, 18.45, 0.15);
}

TEST_F(StreamTest, PaperAsymmetryObservation) {
  // §IV-A: 21.34 from node 7 to node 4's memory beats node 7 against
  // {2,3}; but running on node 4 against node 7's memory (18.45) is worse
  // than running on {2,3}.
  StreamBenchmark bench(host_);
  const double cpu7mem4 = bench.run(7, 4).best;
  EXPECT_GT(cpu7mem4, bench.run(7, 2).best);
  EXPECT_GT(cpu7mem4, bench.run(7, 3).best);
  const double cpu4mem7 = bench.run(4, 7).best;
  EXPECT_LT(cpu4mem7, bench.run(2, 7).best);
  EXPECT_LT(cpu4mem7, bench.run(3, 7).best);
}

TEST_F(StreamTest, Node0LocalBeatsOtherLocals) {
  StreamBenchmark bench(host_);
  const double node0 = bench.run(0, 0).best;
  for (NodeId i = 1; i < 8; ++i) {
    EXPECT_GT(node0, bench.run(i, i).best) << i;
  }
}

TEST_F(StreamTest, DeterministicAcrossRuns) {
  StreamBenchmark a(host_);
  StreamBenchmark b(host_);
  EXPECT_DOUBLE_EQ(a.run(5, 2).best, b.run(5, 2).best);
}

TEST_F(StreamTest, DefaultArraySizeSatisfiesPaperRule) {
  // Paper rule: each array at least 4x the LLC.
  const double llc_bytes = machine_.profile().llc_mb * 1e6;
  EXPECT_GE(static_cast<double>(kStreamArrayElems * 8), 4.0 * llc_bytes);
  EXPECT_EQ(kStreamArrayElems, 2'621'440u);
  EXPECT_EQ(kStreamRepetitions, 100);
}

TEST_F(StreamTest, FourKernelsPerformSimilarly) {
  // §III-B1: the four operations "exhibit a similar performance".
  double lo = 1e9, hi = 0.0;
  for (StreamKind k : {StreamKind::kCopy, StreamKind::kScale,
                       StreamKind::kAdd, StreamKind::kTriad}) {
    const double best = StreamBenchmark(host_, k).run(5, 5).best;
    lo = std::min(lo, best);
    hi = std::max(hi, best);
  }
  EXPECT_LT(hi / lo, 1.06);
}

TEST_F(StreamTest, AllocationsAreReleased) {
  const auto before = host_.node_free_bytes(2);
  StreamBenchmark bench(host_);
  bench.run(7, 2);
  EXPECT_EQ(host_.node_free_bytes(2), before);
}

// Every (cpu, mem) cell is positive and deterministic — a property sweep
// over the whole binding space.
class StreamCellSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StreamCellSweep, PositiveAndStable) {
  fabric::Machine machine{fabric::dl585_profile()};
  nm::Host host{machine};
  const auto [cpu, mem] = GetParam();
  StreamBenchmark bench(host);
  const StreamResult r = bench.run(cpu, mem);
  EXPECT_GT(r.worst, 5.0);
  EXPECT_LT(r.best, 40.0);
}

INSTANTIATE_TEST_SUITE_P(AllBindings, StreamCellSweep,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 8)));

}  // namespace
}  // namespace numaio::mem
