// Fleet serving core: N simulated hosts behind admission control, with
// overload shedding, bounded retries, per-host circuit breakers, and
// host-failure recovery.
//
// This is the first leg of the ROADMAP's fleet-scale item. Each host is a
// full DL585 testbed (fabric::Machine + nm::Host + NIC) fronted by a
// model::OnlineScheduler, so every request's service rate comes from the
// same max-min-fair FlowSolver contention math the paper's Eq. 1 predictor
// is validated against — an overloaded host slows *because* its NIC, HT
// links and memory controllers saturate, not because of a tuned constant.
//
// Control plane, in dispatch order:
//   admission  per-tenant token bucket (reject over-quota arrivals with a
//              kOverloaded Status — never block);
//   queue      bounded depth, lowest-priority-first shedding (admission.h);
//   placement  least-loaded host whose breaker admits, then the host's
//              OnlineScheduler picks the NUMA node (class-aware);
//   breaker    per-host closed/open/half-open machine (breaker.h), tripped
//              by consecutive failures, p99 breach, or an observed crash;
//   retries    per-attempt timeouts clamped to the request's absolute
//              deadline, exponential backoff with seeded jitter, and a
//              per-tenant retry *budget* so storms cannot amplify load.
//
// Host-level faults come from a faults::FaultPlan (kHostCrash / kHostHang
// / kHostRecover): a crash fails the host's in-flight requests, which are
// re-placed on surviving hosts citing the causing `fault.transition`
// record; a hang freezes progress until timeouts fire; recovery runs the
// host at reduced capacity. The degradation contract — bounded queue,
// lowest-priority-first sheds, accepted-request p99 <= deadline — is
// enforced by construction and asserted by tests/test_fleet.cpp.
//
// Determinism: all randomness (arrivals, request shapes, backoff jitter)
// forks from one seed; no wall clock is read. Two same-seed runs emit
// byte-identical deterministic traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "fleet/breaker.h"
#include "obs/obs.h"
#include "simcore/retry.h"
#include "simcore/status.h"
#include "simcore/units.h"

namespace numaio::fleet {

/// One tenant of the fleet: an open-loop arrival stream with a quota and
/// a shed priority. Higher priority is shed later.
struct TenantSpec {
  std::string name;
  int priority = 0;
  double arrival_rate_per_s = 40.0;  ///< Mean offered load (Poisson).
  double quota_rate_per_s = 50.0;    ///< Token-bucket refill.
  double quota_burst = 16.0;         ///< Token-bucket depth.
  int retry_budget = 32;             ///< Total retries across the run.
  sim::Bytes request_bytes = 16 * sim::kMiB;
};

/// How requests are served on a host (DESIGN.md §12).
enum class ServiceModel {
  /// Full per-request fluid-flow simulation: every attempt is a solver
  /// flow and rates come from max-min-fair contention (PR 6 behavior).
  kFluid,
  /// Two-level model: requests share the host's class-summary capacity
  /// (processor sharing, no per-request solver flows) and node choice
  /// is a round-robin over the shared classification's class-1 nodes.
  /// This is what carries the fleet past 10^5 scheduled requests/s.
  kCoarse,
};

/// Cross-host placement policy (DESIGN.md §12).
enum class PlacementPolicy {
  /// Least in-flight across all hosts (PR 6 behavior).
  kLeastLoaded,
  /// Paper §VI: partition hosts into equal-performance classes via the
  /// gap classifier over cadence-refreshed capacity summaries, spread
  /// placements round-robin across classes, least-loaded within one.
  kClassSpread,
};

struct FleetConfig {
  int num_hosts = 4;
  int queue_depth = 64;
  int max_inflight_per_host = 8;
  /// Absolute completion deadline per admitted request; the accepted-p99
  /// bound of the degradation contract.
  sim::Ns deadline = 0.5e9;
  /// Per-attempt timeout / backoff. `timeout` 0 means attempts are only
  /// bounded by the absolute deadline.
  sim::RetryPolicy retry{
      /*max_retries=*/3, /*timeout=*/0.15e9, /*base_backoff=*/4.0e6,
      /*multiplier=*/2.0, /*jitter_frac=*/0.25, /*max_backoff=*/0.2e9};
  BreakerConfig breaker{};
  std::uint64_t seed = 1;
  /// Arrivals stop here; the run then drains (every pending request
  /// completes or hits its deadline).
  sim::Ns horizon = 10.0e9;
  /// Batched admission: > 0 drains arrivals in epochs at fixed
  /// multiples of this window, emitting one `fleet.admit_batch` span
  /// per epoch instead of per-request admit/reject events. 0 keeps the
  /// per-request admission path byte-identical to PR 6. Must be
  /// shorter than `deadline`; quota verdicts refill to the original
  /// arrival instant, so they match the per-request path exactly.
  sim::Ns batch_window = 0.0;
  ServiceModel service_model = ServiceModel::kFluid;
  PlacementPolicy placement = PlacementPolicy::kLeastLoaded;
  /// kClassSpread summary staleness bound: host class summaries
  /// (capacity head-room, breaker state, windowed p99) refresh at most
  /// once per this much simulated time, pulled lazily at placement.
  sim::Ns summary_refresh = 50.0e6;
  /// 0 keeps the uniform DL585 fleet. k > 0 gives every k-th host
  /// (h % k == k - 1) the lite SKU (io::Testbed::dl585_lite — a
  /// previous-generation NIC with ~55% of the ConnectX-3's ceilings), so
  /// model::gap_classes sees genuinely mixed hardware and kClassSpread
  /// placement exercises >1 class.
  int alt_sku_every = 0;
  /// Completion-alarm quantization (DESIGN.md §13): > 0 rounds every
  /// projected flow-completion alarm up to the next multiple of this
  /// grid, so completions across hosts share instants and one alarm
  /// round commits them all before a single re-dispatch. A request
  /// occupies its slot until the grid instant (at most one grid step of
  /// added latency); 0 keeps exact per-completion alarms.
  sim::Ns completion_grid = 0.0;

  /// Typed validation of every knob above: ok() or kUsage with the
  /// offending field named. FleetSim's constructor throws the same
  /// Status via StatusError; callers wiring configs from flags can call
  /// this directly instead of catching.
  Status validate() const;
};

struct TenantStats {
  std::string name;
  int priority = 0;
  long long submitted = 0;
  long long admitted = 0;
  long long rejected_quota = 0;  ///< Token bucket said no (kOverloaded).
  long long shed = 0;            ///< Evicted from the bounded queue.
  long long completed = 0;
  long long failed = 0;          ///< Deadline / retries / budget exhausted.
  long long retries = 0;
  double goodput_rps = 0.0;      ///< Completions per simulated second.
  sim::Ns latency_p50 = 0.0;     ///< Over completed requests.
  sim::Ns latency_p99 = 0.0;
};

struct FleetReport {
  std::vector<TenantStats> tenants;
  long long submitted = 0;
  long long admitted = 0;
  long long rejected_quota = 0;
  long long shed = 0;
  long long completed = 0;
  long long failed = 0;
  long long retries = 0;
  long long replaced = 0;       ///< In-flight requests re-placed off a crash.
  long long dispatches = 0;     ///< Attempts started on a host.
  int breaker_trips = 0;
  int max_queue_depth = 0;
  double attempts_per_s = 0.0;  ///< Attempts over the active span (t = 0
                                ///< through the last dispatch), not the
                                ///< guard-event drain tail.
  double shed_fraction = 0.0;   ///< shed / submitted.
  sim::Ns accepted_p50 = 0.0;   ///< Latency percentiles over completions.
  sim::Ns accepted_p99 = 0.0;
  sim::Ns accepted_p999 = 0.0;  ///< Tail beyond p99 (storms live here).
  /// Placement latency: admission -> first dispatch, over requests that
  /// reached a host (the ROADMAP's fleet-scale p99 deliverable).
  sim::Ns placement_p50 = 0.0;
  sim::Ns placement_p99 = 0.0;
  sim::Ns makespan = 0.0;       ///< Simulated time when the run drained.
  long long lane_rounds = 0;    ///< Completion-alarm rounds (DESIGN.md §13).

  /// Human-readable table (the CLI's `fleet` output).
  std::string summary() const;
};

/// Admission decision for one request, built on numaio::Status: ok() means
/// admitted; code kOverloaded carries the quota/queue rejection reason.
/// The fleet never blocks a caller — this is the typed "no".
Status admission_status(bool admitted, const std::string& reason);

class FleetSim {
 public:
  /// Throws StatusError(kUsage) on an empty tenant list or a non-positive
  /// host count.
  FleetSim(FleetConfig config, std::vector<TenantSpec> tenants);
  ~FleetSim();

  FleetSim(const FleetSim&) = delete;
  FleetSim& operator=(const FleetSim&) = delete;

  /// Host-level fault schedule (validated against num_hosts; machine-level
  /// kinds in the plan apply to host 0's machine).
  void set_fault_plan(faults::FaultPlan plan);

  /// Attaches an observability context (nullptr detaches). run() then
  /// opens a `fleet.run` span and emits fleet.admit / fleet.reject /
  /// fleet.shed / fleet.dispatch / fleet.timeout / fleet.retry /
  /// fleet.replace / fleet.fail / fleet.complete / fleet.breaker events,
  /// with shed/trip/replace/recovery decisions citing the causing
  /// `fault.transition` record id. Must outlive run().
  void set_observer(obs::Context* obs);

  /// Executes the whole simulated run to drain and reports. Reentrant:
  /// each call builds a fresh fleet.
  FleetReport run();

  const FleetConfig& config() const { return config_; }
  const std::vector<TenantSpec>& tenants() const { return tenants_; }

 private:
  FleetConfig config_;
  std::vector<TenantSpec> tenants_;
  faults::FaultPlan plan_;
  obs::Context* obs_ = nullptr;
};

/// The ISSUE's storm scenario, shared by the CLI, the bench and tests:
/// `num_tenants` tenants with ascending priorities splitting `offered_rps`
/// (lowest priority carries the largest share), plus one host crashing
/// mid-run and recovering at reduced capacity.
struct StormScenario {
  FleetConfig config;
  std::vector<TenantSpec> tenants;
  faults::FaultPlan plan;
};
StormScenario make_storm(int num_hosts, int num_tenants, double offered_rps,
                         std::uint64_t seed, sim::Ns horizon);

/// The scale scenario: thousands of small-request tenants over the
/// batched (2 ms epochs), coarse-service, class-placed request path, with
/// one host crashing mid-run and recovering at half capacity. Small requests (256 KiB) put per-host
/// service capacity near 10^4 req/s, so the fleet clears >= 10^5
/// scheduled requests/s (bench_harness's fleet_scale.sim_dispatch_rps).
StormScenario make_scale_storm(int num_hosts, int num_tenants,
                               double offered_rps, std::uint64_t seed,
                               sim::Ns horizon);

}  // namespace numaio::fleet
