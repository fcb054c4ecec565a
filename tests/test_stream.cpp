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
  StreamBenchmark bench(host_, StreamConfig{});
  const StreamResult r = bench.run(7, 7);
  EXPECT_LE(r.best, 29.0);
  EXPECT_GT(r.best, 29.0 * 0.995);  // max-of-100 sits at the ceiling
}

TEST_F(StreamTest, BestMeanWorstOrdering) {
  StreamBenchmark bench(host_, StreamConfig{});
  const StreamResult r = bench.run(3, 5);
  EXPECT_GE(r.best, r.mean);
  EXPECT_GE(r.mean, r.worst);
  EXPECT_GT(r.worst, 0.0);
}

TEST_F(StreamTest, PaperAnchorCpu7Mem4) {
  StreamBenchmark bench(host_, StreamConfig{});
  EXPECT_NEAR(bench.run(7, 4).best, 21.34, 0.15);
}

TEST_F(StreamTest, PaperAnchorCpu4Mem7) {
  StreamBenchmark bench(host_, StreamConfig{});
  EXPECT_NEAR(bench.run(4, 7).best, 18.45, 0.15);
}

TEST_F(StreamTest, PaperAsymmetryObservation) {
  // §IV-A: 21.34 from node 7 to node 4's memory beats node 7 against
  // {2,3}; but running on node 4 against node 7's memory (18.45) is worse
  // than running on {2,3}.
  StreamBenchmark bench(host_, StreamConfig{});
  const double cpu7mem4 = bench.run(7, 4).best;
  EXPECT_GT(cpu7mem4, bench.run(7, 2).best);
  EXPECT_GT(cpu7mem4, bench.run(7, 3).best);
  const double cpu4mem7 = bench.run(4, 7).best;
  EXPECT_LT(cpu4mem7, bench.run(2, 7).best);
  EXPECT_LT(cpu4mem7, bench.run(3, 7).best);
}

TEST_F(StreamTest, Node0LocalBeatsOtherLocals) {
  StreamBenchmark bench(host_, StreamConfig{});
  const double node0 = bench.run(0, 0).best;
  for (NodeId i = 1; i < 8; ++i) {
    EXPECT_GT(node0, bench.run(i, i).best) << i;
  }
}

TEST_F(StreamTest, DeterministicAcrossRuns) {
  StreamBenchmark a(host_, StreamConfig{});
  StreamBenchmark b(host_, StreamConfig{});
  EXPECT_DOUBLE_EQ(a.run(5, 2).best, b.run(5, 2).best);
}

TEST_F(StreamTest, SeedChangesNoiseNotScale) {
  StreamConfig c1;
  StreamConfig c2;
  c2.seed = 999;
  StreamBenchmark a(host_, c1);
  StreamBenchmark b(host_, c2);
  const double ra = a.run(5, 2).best;
  const double rb = b.run(5, 2).best;
  EXPECT_NE(ra, rb);
  EXPECT_NEAR(ra, rb, 0.02 * ra);
}

TEST_F(StreamTest, UndersizedArraysAreFlaggedAndInflated) {
  // Paper rule: arrays at least 4x the 5 MB LLC (2,621,440 elements).
  StreamConfig small;
  small.array_elems = 500'000;  // 4 MB arrays: cache-contaminated
  StreamBenchmark contaminated(host_, small);
  const StreamResult r = contaminated.run(6, 6);
  EXPECT_TRUE(r.cache_contaminated);
  StreamBenchmark clean(host_, StreamConfig{});
  const StreamResult ok = clean.run(6, 6);
  EXPECT_FALSE(ok.cache_contaminated);
  EXPECT_GT(r.best, ok.best);  // cache reuse inflates the number
}

TEST_F(StreamTest, DefaultArraySizeSatisfiesPaperRule) {
  const StreamConfig c;
  EXPECT_GE(c.array_elems * 8, 4 * 5 * 1000 * 1000u);
  EXPECT_EQ(c.array_elems, 2'621'440u);
  EXPECT_EQ(c.repetitions, 100);
}

TEST_F(StreamTest, FourKernelsPerformSimilarly) {
  // §III-B1: the four operations "exhibit a similar performance".
  double lo = 1e9, hi = 0.0;
  for (StreamKind k : {StreamKind::kCopy, StreamKind::kScale,
                       StreamKind::kAdd, StreamKind::kTriad}) {
    StreamConfig c;
    c.kind = k;
    const double best = StreamBenchmark(host_, c).run(5, 5).best;
    lo = std::min(lo, best);
    hi = std::max(hi, best);
  }
  EXPECT_LT(hi / lo, 1.06);
}

TEST_F(StreamTest, AllocationsAreReleased) {
  const auto before = host_.node_free_bytes(2);
  StreamBenchmark bench(host_, StreamConfig{});
  bench.run(7, 2);
  EXPECT_EQ(host_.node_free_bytes(2), before);
}

TEST_F(StreamTest, FewerThreadsLowerBandwidth) {
  StreamConfig one;
  one.threads = 1;
  StreamConfig four;
  four.threads = 4;
  const double r1 = StreamBenchmark(host_, one).run(5, 5).best;
  const double r4 = StreamBenchmark(host_, four).run(5, 5).best;
  EXPECT_NEAR(r1 * 4.0, r4, 0.05 * r4);
}

// Every (cpu, mem) cell is positive and deterministic — a property sweep
// over the whole binding space.
class StreamCellSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StreamCellSweep, PositiveAndStable) {
  fabric::Machine machine{fabric::dl585_profile()};
  nm::Host host{machine};
  const auto [cpu, mem] = GetParam();
  StreamBenchmark bench(host, StreamConfig{});
  const StreamResult r = bench.run(cpu, mem);
  EXPECT_GT(r.worst, 5.0);
  EXPECT_LT(r.best, 40.0);
}

INSTANTIATE_TEST_SUITE_P(AllBindings, StreamCellSweep,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Range(0, 8)));

}  // namespace
}  // namespace numaio::mem
