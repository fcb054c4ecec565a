// Small descriptive-statistics helpers used by benches, reports and the
// stability analyses (the paper reports averages over 400 GB transfers,
// max-of-100 STREAM repetitions, and relies on rate stability §V-B).
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

namespace numaio::sim {

/// Linear-interpolated percentiles of a series, one per entry of `ps`
/// (each in [0, 1]) and in the order asked. Each selects its two order
/// statistics in one copy of the series, so the values are a sort's
/// without the sort; the input need not be sorted and is left unchanged.
/// An empty span yields 0 for every p.
std::vector<double> percentiles(std::span<const double> values,
                                std::initializer_list<double> ps);

/// Outlier-robust location + dispersion of a repetition series. Under
/// fault injection the max-of-reps and plain-mean estimators the paper
/// uses become meaningless (one IRQ storm poisons them); these do not.
struct RobustSummary {
  /// Symmetric trimmed mean: the lowest and highest `trim_frac` fraction
  /// of the sorted values are dropped, and at least one value survives the
  /// trim. 10%-trimmed by default (see robust_summarize); with trim_frac 0
  /// it is the plain mean.
  double trimmed_mean = 0.0;
  double median = 0.0;
  /// Median absolute deviation from the median — a dispersion estimate
  /// that survives heavy-tailed outliers (a single stalled repetition
  /// moves the stddev arbitrarily far but barely moves the MAD).
  double mad = 0.0;
  /// MAD scaled to the median (relative dispersion); 0 for a zero median.
  double rel_dispersion = 0.0;
  /// Set when rel_dispersion exceeds the caller's threshold: the series is
  /// too noisy for its location estimate to be trusted.
  bool low_confidence = false;
  std::size_t count = 0;
};

/// Robust summary with the given trim fraction (in [0, 0.5)) and the
/// dispersion level above which the sample is flagged low-confidence.
/// Every field reads one sorted copy of the series. An empty span yields a
/// zero RobustSummary.
RobustSummary robust_summarize(std::span<const double> values,
                               double trim_frac = 0.1,
                               double dispersion_threshold = 0.05);

}  // namespace numaio::sim
