// Always-on metrics for the measurement pipeline.
//
// A MetricsRegistry holds named counters (monotonic sums), gauges (last
// value wins) and fixed-bucket histograms. Registration resolves a name to
// a dense integer Id once; the hot-path operations (add / set / observe)
// are then a bounds-checked vector index and an arithmetic op, cheap
// enough to leave compiled-in and attached even on measurement paths —
// the contention solver counts every water-filling round through one.
//
// Snapshots serialize to a small JSON document (names sorted, so
// same-seed runs produce byte-identical files) and parse back with
// parse_metrics_json(); summary() renders the human table behind
// `numaio_cli metrics`. The metric names the toolkit emits are catalogued
// in known_metrics() (obs/obs.h) and docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace numaio::obs {

class MetricsRegistry {
 public:
  using Id = std::size_t;
  /// "No metric": add/set/observe on it are no-ops, so call sites can keep
  /// one unconditional statement.
  static constexpr Id kNone = static_cast<Id>(-1);

  /// Get-or-create by name. Ids are stable for the registry's lifetime.
  /// Registering the same name as two different kinds throws
  /// std::invalid_argument.
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  /// `upper_bounds` must be strictly ascending; an implicit +inf overflow
  /// bucket is appended. Re-registering must repeat the same bounds.
  Id histogram(std::string_view name, std::vector<double> upper_bounds);

  void add(Id id, double delta = 1.0);  ///< Counter increment.
  void set(Id id, double value);        ///< Gauge assignment.
  void observe(Id id, double value);    ///< Histogram sample.

  /// Value of a counter or gauge by name; 0 when absent.
  double value(std::string_view name) const;

  struct Histogram {
    std::string name;
    /// Ascending upper bounds; bucket i counts samples v with
    /// bounds[i-1] < v <= bounds[i] (first bucket: v <= bounds[0]).
    std::vector<double> bounds;
    /// bounds.size() + 1 entries; the last is the +inf overflow bucket.
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Quantile estimate by linear interpolation inside the bucket the
    /// rank q*count lands in (Prometheus histogram_quantile style). The
    /// first bucket interpolates from min(0, bounds[0]); ranks landing in
    /// the +inf overflow bucket report bounds.back() — the estimate is
    /// clamped to the observable range. Returns 0 for an empty histogram.
    double quantile(double q) const;

    /// Records one sample (same bucketing as MetricsRegistry::observe).
    /// Lets standalone collectors (obs/profile.h) accumulate into a plain
    /// Histogram value before merging it into a registry.
    void observe(double value);
  };
  /// nullptr when no histogram of that name exists.
  const Histogram* find_histogram(std::string_view name) const;

  /// Folds an externally accumulated histogram into the registry: buckets,
  /// count and sum are added into the histogram of the same name
  /// (registered on first merge). Bounds must match an existing
  /// registration; empty-bounds inputs are ignored. This is how the
  /// scheduler-latency profile (obs/profile.h) lands in Prometheus
  /// exports without the collector owning a registry.
  void merge_histogram(const Histogram& histogram);

  /// Name-sorted snapshots, the exporters' iteration surface (the JSON
  /// and Prometheus renderings must not depend on registration order).
  struct NamedValue {
    std::string name;
    double value = 0.0;
  };
  std::vector<NamedValue> counter_values() const;
  std::vector<NamedValue> gauge_values() const;
  std::vector<const Histogram*> histograms_sorted() const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Deterministic JSON snapshot (docs/FORMATS.md §4).
  std::string to_json() const;

  /// Human-readable table: counters, gauges, then histograms with their
  /// per-bucket counts.
  std::string summary() const;

 private:
  friend MetricsRegistry parse_metrics_json(const std::string& text);

  struct Scalar {
    std::string name;
    double value = 0.0;
  };

  std::vector<Scalar> counters_;
  std::vector<Scalar> gauges_;
  std::vector<Histogram> histograms_;
};

/// Parses the JSON produced by MetricsRegistry::to_json() back into a
/// registry (the CLI's `metrics --in` summary view), through the
/// obs::json reader. Throws std::invalid_argument on malformed input.
MetricsRegistry parse_metrics_json(const std::string& text);

}  // namespace numaio::obs
