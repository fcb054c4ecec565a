#include "simcore/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace numaio::sim {

namespace {

/// robust_summarize's one sort: its trimmed mean sums in sorted order,
/// and its median and MAD read the same copy.
std::vector<double> sorted_copy(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Where percentile p falls in a sorted series of n > 0 values: `frac` of
/// the way from rank `lo` to rank `hi`.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(std::size_t n, double p) {
  assert(n > 0);
  assert(p >= 0.0 && p <= 1.0);
  const double idx = p * (static_cast<double>(n) - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  return {lo, std::min(lo + 1, n - 1), idx - static_cast<double>(lo)};
}

double interpolate(double at_lo, double at_hi, double frac) {
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double percentile(const std::vector<double>& sorted, double p) {
  const Rank r = rank_of(sorted.size(), p);
  return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

/// The median of |v - med| over a non-empty sorted series, without sorting
/// the deviations. The values below `med` give deviations that rise as the
/// index falls, the values from `med` up give deviations that rise with
/// the index: two sorted runs. Merging them up to the median's upper rank
/// reads the same two order statistics a sort of every deviation would.
double mad(const std::vector<double>& sorted, double med) {
  const Rank r = rank_of(sorted.size(), 0.5);
  const auto deviation = [&](std::size_t i) {
    return std::abs(sorted[i] - med);
  };
  // The next deviation of the falling run is at below - 1, the next of the
  // rising run at above.
  std::size_t below = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), med) - sorted.begin());
  std::size_t above = below;
  double at_lo = 0.0;
  double at = 0.0;
  for (std::size_t rank = 0; rank <= r.hi; ++rank) {
    if (above < sorted.size() &&
        (below == 0 || deviation(above) <= deviation(below - 1))) {
      at = deviation(above++);
    } else {
      at = deviation(--below);
    }
    if (rank == r.lo) at_lo = at;
  }
  return interpolate(at_lo, at, r.frac);
}

double trimmed_mean(const std::vector<double>& sorted, double trim_frac) {
  assert(trim_frac >= 0.0 && trim_frac < 0.5);
  std::size_t drop = static_cast<std::size_t>(
      trim_frac * static_cast<double>(sorted.size()));
  // At least one value must survive the two-sided trim.
  while (2 * drop >= sorted.size() && drop > 0) --drop;
  double sum = 0.0;
  for (std::size_t i = drop; i < sorted.size() - drop; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * drop);
}

}  // namespace

std::vector<double> percentiles(std::span<const double> values,
                                std::initializer_list<double> ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (values.empty()) return out;
  // A percentile reads two adjacent order statistics, so selection finds
  // the sort's values without the sort: once rank lo is in place, every
  // value after it is at least as large, and rank hi is their least.
  std::vector<double> copy(values.begin(), values.end());
  std::transform(ps.begin(), ps.end(), out.begin(), [&](double p) {
    const Rank r = rank_of(copy.size(), p);
    const auto lo = copy.begin() + static_cast<std::ptrdiff_t>(r.lo);
    std::nth_element(copy.begin(), lo, copy.end());
    const double at_hi =
        r.hi == r.lo ? *lo : *std::min_element(lo + 1, copy.end());
    return interpolate(*lo, at_hi, r.frac);
  });
  return out;
}

RobustSummary robust_summarize(std::span<const double> values,
                               double trim_frac,
                               double dispersion_threshold) {
  RobustSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  const std::vector<double> sorted = sorted_copy(values);
  s.trimmed_mean = trimmed_mean(sorted, trim_frac);
  s.median = percentile(sorted, 0.5);
  s.mad = mad(sorted, s.median);
  s.rel_dispersion = s.median != 0.0 ? s.mad / std::abs(s.median) : 0.0;
  s.low_confidence = s.rel_dispersion > dispersion_threshold;
  return s;
}

}  // namespace numaio::sim
