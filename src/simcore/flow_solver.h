// Max-min-fair bandwidth allocation over a network of directed resources.
//
// A Resource is any capacity-limited element on a data path: an HT link
// direction, a node's memory controller, a PCIe link, a device engine, a
// node's CPU budget. A Flow occupies a multiset of weighted resource usages
// (weight w means the flow consumes w units of the resource per Gbps of
// flow rate — e.g. a TCP flow consumes ~1 unit of NIC bandwidth but only a
// fraction of a CPU budget per Gbps) and may carry its own rate cap (a
// DMA-window or TCP-window limit).
//
// solve() runs progressive filling: all unfrozen flows grow at the same
// rate; a flow freezes when it reaches its own cap or when a resource it
// uses saturates. This is the classical water-filling construction of the
// (weighted-usage) max-min-fair allocation and terminates after at most
// (#resources + #flows) rounds.
//
// Storage and caching (see DESIGN.md §9 for the full layout):
//  - Flow usages live in a flat CSR arena (usage_resource_[]/
//    usage_weight_[] plus per-flow {begin,count} offsets), not per-flow
//    heap vectors. Removed flows park their slot + arena span on a
//    free-list and add_flow recycles them, so neither the flow table nor
//    the arena grows under steady-state churn.
//  - Per-resource incidence lists (resource -> {flow, arena index}) let
//    the freeze pass mark only flows actually crossing a saturated
//    resource instead of rescanning every unfrozen flow's usages.
//  - A mutation epoch is bumped by add_flow/remove_flow/set_capacity/
//    set_capacity_factor/set_flow_cap; solve() returns the cached rate
//    vector when the epoch is unchanged, which makes aggregate_rate()
//    and utilization() free right after a solve. All per-solve scratch
//    is reusable member storage: after warm-up a solve performs zero
//    heap allocations (stats().scratch_grows counts the exceptions).
//
// The allocation is bit-identical to the historical per-flow-vector
// solver: live flows are kept on an insertion-order list and every
// floating-point accumulation (initial weights, residual subtraction,
// freeze-time weight release, aggregate/utilization sums) walks flows in
// that order, which is exactly the ascending-FlowId order the old solver
// used before ids were recycled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "simcore/status.h"
#include "simcore/units.h"

namespace numaio::sim {

using ResourceId = std::size_t;
using FlowId = std::size_t;

/// One weighted traversal of a resource by a flow.
struct Usage {
  ResourceId resource = 0;
  double weight = 1.0;  ///< Units consumed per Gbps of flow rate.
};

class FlowSolver {
 public:
  /// Intrinsic per-solver counters, maintained whether or not an
  /// obs::Context is attached. Mirrors the solver.* metrics (which need
  /// an observer) so tests and tools can assert on cache/scratch
  /// behavior without wiring a registry.
  struct SolveStats {
    std::uint64_t solve_calls = 0;    ///< solve() invocations (hits + misses).
    std::uint64_t cache_hits = 0;     ///< Solves answered from the epoch cache.
    std::uint64_t cache_misses = 0;   ///< Solves that ran water-filling.
    std::uint64_t rounds = 0;         ///< Water-filling rounds across misses.
    std::uint64_t flows_scanned = 0;  ///< Unfrozen-flow visits across rounds.
    std::uint64_t resource_touches = 0;  ///< Per-usage residual updates.
    std::uint64_t scratch_grows = 0;  ///< Solve-path scratch (re)allocations.
  };

  /// Registers a resource. `capacity` may be kUnlimited.
  ResourceId add_resource(std::string name, Gbps capacity);

  /// Adjusts a resource's base capacity (e.g. CPU budget shrinking under
  /// interrupt load). The effective capacity is base * factor; the factor
  /// set by set_capacity_factor survives this call. Takes effect at the
  /// next solve().
  void set_capacity(ResourceId id, Gbps capacity);

  /// Scales a resource multiplicatively without forgetting its base
  /// capacity: effective capacity = base * factor. Used by fault and
  /// degradation models (link degrade, MC throttle) so a later
  /// factor-reset restores the calibrated base exactly. `factor` must be
  /// finite and > 0; 1.0 removes the scaling.
  void set_capacity_factor(ResourceId id, double factor);
  double capacity_factor(ResourceId id) const;

  /// Effective capacity (base * factor).
  Gbps capacity(ResourceId id) const;
  const std::string& resource_name(ResourceId id) const;
  std::size_t resource_count() const { return resources_.size(); }

  /// Adds a flow with weighted resource usages (a resource may appear more
  /// than once; weights accumulate) and an optional private rate cap.
  /// The returned id may recycle the slot of a previously removed flow;
  /// ids are only meaningful while the flow is alive.
  FlowId add_flow(std::vector<Usage> usages, Gbps rate_cap = kUnlimited);

  /// Convenience: unit-weight usage of each resource on `path`.
  FlowId add_flow_over(const std::vector<ResourceId>& path,
                       Gbps rate_cap = kUnlimited);

  /// Removes a flow; the slot and its arena span go on the free-list and
  /// a later add_flow may hand the same id out again. Returns
  /// StatusCode::kUsage — with the solver untouched — when `id` is out
  /// of range or already dead, so double-remove races surface as a typed
  /// error instead of free-list corruption (historically this asserted in
  /// debug builds and silently corrupted in release).
  Status remove_flow(FlowId id);

  /// Replaces a live flow's private rate cap. Returns StatusCode::kUsage
  /// (solver untouched) for an out-of-range or dead id, mirroring
  /// remove_flow; setting the current cap again keeps the solve cache
  /// warm.
  Status set_flow_cap(FlowId id, Gbps rate_cap);
  Gbps flow_cap(FlowId id) const;
  bool flow_alive(FlowId id) const;
  std::size_t live_flow_count() const { return live_flows_; }

  /// Attaches an observability context (nullptr detaches). Each solve()
  /// then records round-level profiling counters (`solver.rounds`,
  /// `solver.rounds_per_solve`, `solver.flows_scanned`,
  /// `solver.resource_touches`), cache behavior (`solver.solves`,
  /// `solver.cache_hits`, `solver.cache_misses`), wall time
  /// (`solver.solve_us`, cache misses only). The context must outlive
  /// the solver or be detached first.
  void set_observer(obs::Context* obs);

  /// Computes the max-min-fair allocation for all live flows, or returns
  /// the cached allocation when nothing mutated since the last solve.
  /// The returned vector is indexed by FlowId (slot); removed flows
  /// report 0. The reference stays valid until the next mutation +
  /// solve. Logically const but not safe to call concurrently: it reuses
  /// member scratch.
  const std::vector<Gbps>& solve() const;

  /// Sum of the allocation over all live flows. Free when cached.
  Gbps aggregate_rate() const;

  /// Utilization (weighted usage / capacity) of one resource under the
  /// current allocation; 0 for unlimited resources. Free when cached.
  double utilization(ResourceId id) const;

  /// Mutation epoch: bumped whenever a change invalidates the solve
  /// cache. Value-preserving mutations (set_capacity to the same
  /// capacity, set_flow_cap to the same cap, failed remove_flow/
  /// set_flow_cap on a dead id) keep the cache warm.
  std::uint64_t epoch() const { return epoch_; }

  const SolveStats& stats() const { return stats_; }

 private:
  static constexpr FlowId kNoFlow = static_cast<FlowId>(-1);

  struct Resource {
    std::string name;
    Gbps base = kUnlimited;   ///< Calibrated capacity (set_capacity).
    double factor = 1.0;      ///< Multiplicative scale (set_capacity_factor).
    Gbps capacity = kUnlimited;  ///< Effective: base * factor, cached.
  };

  /// Per-flow CSR header. `begin`/`count` index the usage arena; `span`
  /// is the allocated arena width (>= count) so recycled slots can host
  /// smaller flows in place. `prev`/`next` thread live flows in
  /// insertion order (the solve iteration order).
  struct FlowMeta {
    std::size_t begin = 0;
    std::size_t count = 0;
    std::size_t span = 0;
    Gbps cap = kUnlimited;
    bool alive = false;
    FlowId prev = kNoFlow;
    FlowId next = kNoFlow;
  };

  /// One usage seen from its resource: which flow crosses, and where in
  /// the arena — enough to fix up usage_inc_pos_ on swap-remove.
  struct IncidenceEntry {
    FlowId flow = 0;
    std::size_t usage = 0;  ///< Arena index of the usage.
  };

  /// Water-filling scratch, reused across solves.
  struct SolveScratch {
    std::vector<FlowId> worklist;     ///< Live flows, insertion order.
    std::vector<ResourceId> touched;  ///< Resources with live weight.
    std::vector<double> weight;
    std::vector<Gbps> residual;
    std::vector<std::uint64_t> touch_stamp;  ///< Per resource.
    std::vector<std::uint64_t> cand_stamp;   ///< Per flow slot.
    std::uint64_t stamp = 0;
    // Per-solve counters, summed into stats_ after the solve.
    std::uint64_t rounds = 0;
    std::uint64_t flows_scanned = 0;
    std::uint64_t resource_touches = 0;
    std::uint64_t scratch_grows = 0;
  };

  void bump_epoch();
  void refresh_capacity(ResourceId id);
  template <class T>
  static void ensure_size(std::vector<T>& v, std::size_t n,
                          std::uint64_t& grows);
  void solve_uncached() const;
  /// Water-fills all live flows, listed in insertion order in `flows`,
  /// using scratch_. `flows` is compacted in place as flows freeze.
  void solve_span(FlowId* flows, std::size_t n) const;

  std::vector<Resource> resources_;
  std::vector<FlowMeta> flows_;
  FlowId head_ = kNoFlow;  ///< Oldest live flow (insertion order).
  FlowId tail_ = kNoFlow;  ///< Newest live flow.
  std::size_t live_flows_ = 0;
  std::vector<FlowId> free_slots_;  ///< Dead slots available for recycling.

  // CSR usage arena, parallel arrays indexed by FlowMeta::begin + i.
  std::vector<ResourceId> usage_resource_;
  std::vector<double> usage_weight_;
  std::vector<std::size_t> usage_inc_pos_;  ///< Position in incidence_[r].

  // resource -> usages crossing it; order is arbitrary (swap-remove).
  std::vector<std::vector<IncidenceEntry>> incidence_;

  // Epoch cache: solve() is a cache hit while epoch_ == cached_epoch_.
  std::uint64_t epoch_ = 0;
  mutable bool cache_valid_ = false;
  mutable std::uint64_t cached_epoch_ = 0;
  mutable std::vector<Gbps> rates_;  ///< Cached allocation, by slot.

  mutable SolveScratch scratch_;

  mutable SolveStats stats_;

  // Metric ids are resolved once in set_observer; solve() is const, so it
  // reaches the registry through this pointer without touching solver state.
  obs::Context* obs_ = nullptr;
  obs::MetricsRegistry::Id m_solves_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_rounds_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_rounds_hist_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_solve_us_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_cache_hits_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_cache_misses_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_flows_scanned_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_touches_ = obs::MetricsRegistry::kNone;
};

}  // namespace numaio::sim
