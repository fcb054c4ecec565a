#include "simcore/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "simcore/rng.h"

namespace numaio::sim {
namespace {

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentiles(v, {0.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(percentiles(v, {1.0})[0], 3.0);
  EXPECT_DOUBLE_EQ(percentiles(v, {0.5})[0], 2.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentiles(v, {0.25})[0], 2.5);
  EXPECT_DOUBLE_EQ(percentiles(v, {0.9})[0], 9.0);
}

TEST(Stats, PercentileDoesNotMutateInput) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  percentiles(v, {0.5});
  EXPECT_EQ(v[0], 3.0);
}

TEST(Stats, PercentilesAnswerInTheOrderAsked) {
  const std::vector<double> v{3.0, 10.0, 1.0, 2.0};
  EXPECT_EQ(percentiles(v, {1.0, 0.0, 0.5, 0.5}),
            (std::vector<double>{10.0, 1.0, 2.5, 2.5}));
  EXPECT_EQ(v, (std::vector<double>{3.0, 10.0, 1.0, 2.0}));
  EXPECT_TRUE(percentiles(v, {}).empty());
  EXPECT_EQ(percentiles({}, {0.5, 0.99}), (std::vector<double>{0.0, 0.0}));
}

TEST(Stats, RobustSummaryOfEmptySeriesIsZero) {
  const RobustSummary s = robust_summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.trimmed_mean, 0.0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.mad, 0.0);
  EXPECT_EQ(s.rel_dispersion, 0.0);
  EXPECT_FALSE(s.low_confidence);
}

TEST(Stats, RobustSummaryKnownSeries) {
  // {1, 1, 2, 2, 4, 6, 9} shuffled. The deviations from the median 2 are
  // {1, 1, 0, 0, 2, 4, 7}, whose median is 1.
  const std::vector<double> v{9.0, 1.0, 4.0, 2.0, 6.0, 1.0, 2.0};
  const RobustSummary s = robust_summarize(v, 0.0);
  EXPECT_EQ(s.count, 7u);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  EXPECT_DOUBLE_EQ(s.rel_dispersion, 0.5);
  EXPECT_DOUBLE_EQ(s.trimmed_mean, 25.0 / 7.0);
  // 25% of 7 values drops one at each end: {1, 2, 2, 4, 6}.
  EXPECT_DOUBLE_EQ(robust_summarize(v, 0.25).trimmed_mean, 3.0);
}

TEST(Stats, TrimKeepsAtLeastOneValue) {
  // A 49% trim of three values rounded up would drop all of them; the
  // middle one survives.
  EXPECT_DOUBLE_EQ(robust_summarize(std::vector{30.0, 1.0, 2.0}, 0.49)
                       .trimmed_mean,
                   2.0);
  EXPECT_DOUBLE_EQ(robust_summarize(std::vector{1.0, 3.0}, 0.49).trimmed_mean,
                   2.0);
  EXPECT_DOUBLE_EQ(robust_summarize(std::vector{7.0}, 0.49).trimmed_mean,
                   7.0);
}

TEST(Stats, RelDispersionIsZeroAtAZeroMedian) {
  const RobustSummary s =
      robust_summarize(std::vector{2.0, -1.0, 0.0, 1.0, -2.0});
  EXPECT_EQ(s.median, 0.0);
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  EXPECT_EQ(s.rel_dispersion, 0.0);
  EXPECT_FALSE(s.low_confidence);
}

TEST(Stats, LowConfidenceOnlyAboveTheThreshold) {
  const std::vector<double> v{1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0};
  ASSERT_DOUBLE_EQ(robust_summarize(v).rel_dispersion, 0.5);
  EXPECT_TRUE(robust_summarize(v, 0.1, 0.49).low_confidence);
  EXPECT_FALSE(robust_summarize(v, 0.1, 0.5).low_confidence);
  EXPECT_FALSE(robust_summarize(v, 0.1, 0.51).low_confidence);
}

// The four-sort estimators robust_summarize replaced: trimmed_mean,
// median and both medians inside mad each sorted their own copy. The
// single-sort form must match them bit for bit.
namespace reference {

double percentile(std::span<const double> values, double p) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double idx = p * (static_cast<double>(sorted.size()) - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return percentile(values, 0.5);
}

double mad(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double med = median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::abs(v - med));
  return median(deviations);
}

double trimmed_mean(std::span<const double> values, double trim_frac) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::size_t drop = static_cast<std::size_t>(
      trim_frac * static_cast<double>(sorted.size()));
  while (2 * drop >= sorted.size() && drop > 0) --drop;
  double sum = 0.0;
  for (std::size_t i = drop; i < sorted.size() - drop; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * drop);
}

RobustSummary robust_summarize(std::span<const double> values,
                               double trim_frac) {
  RobustSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.trimmed_mean = trimmed_mean(values, trim_frac);
  s.median = median(values);
  s.mad = mad(values);
  s.rel_dispersion = s.median != 0.0 ? s.mad / std::abs(s.median) : 0.0;
  s.low_confidence = s.rel_dispersion > 0.05;
  return s;
}

}  // namespace reference

/// A repetition series of 1 to 130 values in one of four shapes.
std::vector<double> random_series(sim::Rng& rng, int shape) {
  std::vector<double> v(1 + rng.below(130));
  for (double& x : v) {
    switch (shape) {
      case 0:  // a normal sample
        x = rng.normal(100.0, 15.0);
        break;
      case 1:  // heavy ties
        x = static_cast<double>(rng.below(5));
        break;
      case 2:  // zero-centred, half of it negative
        x = rng.normal(0.0, 1.0);
        break;
      default:  // StreamBenchmark::run's one-sided slowdown
        x = 12.8 * (1.0 - std::min(std::abs(rng.normal(0.010, 0.008)), 0.5));
        break;
    }
  }
  return v;
}

/// Every field, the doubles as bit patterns.
std::array<std::uint64_t, 6> bits(const RobustSummary& s) {
  return {std::bit_cast<std::uint64_t>(s.trimmed_mean),
          std::bit_cast<std::uint64_t>(s.median),
          std::bit_cast<std::uint64_t>(s.mad),
          std::bit_cast<std::uint64_t>(s.rel_dispersion),
          s.low_confidence ? 1u : 0u,
          s.count};
}

TEST(Stats, RobustSummarizeMatchesFourSortReference) {
  constexpr double kTrims[] = {0.0, 0.1, 0.25};
  sim::Rng rng(20130777);
  for (int i = 0; i < 20000; ++i) {
    const double trim = kTrims[(i / 4) % 3];
    const std::vector<double> v = random_series(rng, i % 4);
    ASSERT_EQ(bits(robust_summarize(v, trim)),
              bits(reference::robust_summarize(v, trim)))
        << "series " << i << ": " << v.size() << " values, trim " << trim;
  }
}

}  // namespace
}  // namespace numaio::sim
