// Class-aware cross-host placement (paper §VI, DESIGN.md §12).
//
// The paper's §VI insight, lifted from NUMA nodes to fleet hosts:
// equal-performance resources should be treated as one class, with load
// spread round-robin *across* classes and least-loaded *within* one.
// Hosts are partitioned by the same §V-A gap clustering the NUMA
// classifier uses (model::gap_classes), driven not by live per-request
// state but by each host's effective capacity, sampled on a cadence.
// Placement between refreshes consults the (possibly stale) class table;
// the staleness bound is FleetConfig::summary_refresh and the contract
// is spelled out in DESIGN.md §12.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "simcore/units.h"

namespace numaio::fleet {

/// Relative capacity gap that opens a new host class (§V-A walk).
inline constexpr double kPlacerRelGap = 0.08;

class ClassPlacer {
 public:
  /// `refresh_period`: minimum simulated time between table rebuilds.
  ClassPlacer(int num_hosts, sim::Ns refresh_period)
      : num_hosts_(num_hosts), refresh_period_(refresh_period) {}

  /// Whether the class table is due for a rebuild at `now`.
  bool stale(sim::Ns now) const {
    return !refreshed_ || now - last_refresh_ >= refresh_period_;
  }

  /// Rebuilds the class table from each host's effective capacity (one
  /// per host, degraded by faults). Classes are ordered fastest first;
  /// host ids ascend within a class.
  void refresh(std::span<const double> capacity_gbps, sim::Ns now);

  /// Picks a host: starting from the round-robin cursor class, take the
  /// least-loaded eligible host (ties: lower id) of the first class that
  /// has one, then advance the cursor past that class. `live_load` is
  /// current inflight per host (live, not summary — load changes every
  /// dispatch; class membership does not). Returns -1 when no host is
  /// eligible. Needs a refresh first: a placer that never refreshed is
  /// stale(), and a refresh over one or more hosts builds a class.
  int pick(std::span<const int> live_load,
           const std::function<bool(int)>& eligible);

  int num_classes() const { return static_cast<int>(classes_.size()); }
  const std::vector<std::vector<int>>& classes() const { return classes_; }
  /// Picks served by the cursor class vs. ones that fell through to a
  /// later class (cursor class had no eligible host).
  long long spread_picks() const { return spread_picks_; }
  long long fallback_picks() const { return fallback_picks_; }

 private:
  int num_hosts_;
  sim::Ns refresh_period_;
  std::vector<std::vector<int>> classes_;  ///< Host ids, fastest first.
  std::size_t cursor_ = 0;
  bool refreshed_ = false;
  sim::Ns last_refresh_ = 0.0;
  long long spread_picks_ = 0;
  long long fallback_picks_ = 0;
};

}  // namespace numaio::fleet
