// Random-fleet property test: seeded random FleetConfigs that pass
// validate(), each run under a seeded FaultPlan::random plan (host kinds
// included, event times scaled to the horizon). The case index picks the
// five execution-shape switches (service model, placement, batched
// admission, completion grid, attempt timeout), so the 64 cases cover
// every combination twice; everything else is drawn from the case seed.
//
// Every run must keep the accounting identities bench/e2e checks on its
// fixed scenarios, accepted p99 within the deadline, a trace-record count
// linear in the work (no livelock), cause edges that point at earlier
// `fault.transition` records, and byte-identical same-seed traces. Runs
// with per-request admission also give every admitted request exactly
// one terminal record (complete, fail or shed), never later than its
// absolute deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "obs/obs.h"
#include "simcore/rng.h"

namespace numaio::fleet {
namespace {

/// Unloaded per-host service rate the offered load is sized against: a
/// DL585 serves ~215 16 MiB requests/s (make_storm's calibration).
constexpr double kHostBytesPerS = 215.0 * 16.0 * 1024.0 * 1024.0;

struct FleetCase {
  FleetConfig config;
  std::vector<TenantSpec> tenants;
  faults::FaultPlan plan;
};

FleetCase draw_case(std::uint64_t index) {
  sim::Rng rng(index * 0x9e3779b97f4a7c15ull + 0x5eed);
  const auto pick = [&rng](std::uint64_t n) {
    return static_cast<int>(rng.below(n));
  };
  const auto bit = [index](int b) { return ((index >> b) & 1u) != 0; };

  FleetCase c;
  FleetConfig& cfg = c.config;
  cfg.seed = index + 1;
  cfg.num_hosts = 1 + pick(5);
  cfg.queue_depth = 4 + pick(61);
  cfg.max_inflight_per_host = 1 + pick(8);
  cfg.horizon = rng.uniform(0.05e9, 1.2e9);
  cfg.deadline = rng.uniform(0.08e9, 0.8e9);
  cfg.retry.max_retries = pick(4);
  cfg.retry.timeout = bit(4) ? rng.uniform(0.01e9, 0.3e9) : 0.0;
  cfg.retry.base_backoff = rng.uniform(0.5e6, 10.0e6);
  cfg.retry.max_backoff = rng.uniform(20.0e6, 200.0e6);
  cfg.breaker.failure_threshold = 2 + pick(5);
  cfg.breaker.open_cooldown = rng.uniform(0.02e9, 0.5e9);
  cfg.service_model = bit(0) ? ServiceModel::kCoarse : ServiceModel::kFluid;
  cfg.placement =
      bit(1) ? PlacementPolicy::kClassSpread : PlacementPolicy::kLeastLoaded;
  cfg.batch_window =
      bit(2) ? rng.uniform(0.2e6, std::min(5.0e6, cfg.deadline / 2.0)) : 0.0;
  cfg.completion_grid = bit(3) ? rng.uniform(0.05e6, 2.0e6) : 0.0;
  cfg.summary_refresh = rng.uniform(1.0e6, 50.0e6);
  cfg.alt_sku_every = pick(4);

  // 500 to 3,000 arrivals per run, with the request size setting the
  // offered load between 0.2x and 1.6x the fleet's capacity (a host with
  // fewer than 8 slots serves proportionally less).
  const double horizon_s = cfg.horizon / 1e9;
  const double offered_rps = rng.uniform(500.0, 3000.0) / horizon_s;
  const double capacity = kHostBytesPerS * cfg.num_hosts *
                          std::min(1.0, cfg.max_inflight_per_host / 8.0);
  const double bytes =
      std::clamp(rng.uniform(0.2, 1.6) * capacity / offered_rps,
                 16.0 * 1024.0, 64.0 * 1024.0 * 1024.0);
  const int num_tenants = 1 + pick(4);
  std::vector<double> weights;
  double weight_sum = 0.0;
  for (int t = 0; t < num_tenants; ++t) {
    weights.push_back(rng.uniform(0.2, 1.0));
    weight_sum += weights.back();
  }
  for (int t = 0; t < num_tenants; ++t) {
    TenantSpec spec;
    spec.name = "t";
    spec.name += std::to_string(t);
    spec.priority = pick(4);
    spec.arrival_rate_per_s =
        offered_rps * weights[static_cast<std::size_t>(t)] / weight_sum;
    spec.quota_rate_per_s = spec.arrival_rate_per_s * rng.uniform(0.6, 2.0);
    spec.quota_burst = rng.uniform(2.0, 32.0);
    spec.retry_budget = pick(40);
    spec.request_bytes =
        static_cast<sim::Bytes>(bytes * rng.uniform(0.5, 2.0));
    c.tenants.push_back(spec);
  }

  faults::RandomPlanConfig plan;
  plan.seed = index * 31 + 7;
  plan.num_nodes = 8;  // the DL585's NUMA nodes (host 0's machine kinds)
  plan.num_hosts = cfg.num_hosts;
  plan.num_events = pick(7);
  plan.horizon = cfg.horizon;
  plan.min_duration = 0.05 * cfg.horizon;
  plan.max_duration = 0.6 * cfg.horizon;
  c.plan = faults::FaultPlan::random(plan);
  return c;
}

struct CaseRun {
  FleetReport report;
  std::string jsonl;               ///< Deterministic trace bytes.
  std::vector<obs::Event> events;  ///< The same records, in memory.
};

CaseRun run_case(const FleetCase& c) {
  std::ostringstream out;
  obs::JsonlSink jsonl(out);
  obs::MemorySink memory;
  obs::TeeSink tee;
  tee.add(&jsonl);
  tee.add(&memory);
  obs::Context ctx;
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&tee);
  FleetSim sim(c.config, c.tenants);
  sim.set_fault_plan(c.plan);
  sim.set_observer(&ctx);
  CaseRun run;
  run.report = sim.run();
  run.jsonl = out.str();
  run.events = std::move(memory.events);
  return run;
}

/// The request id at the end of a fleet record's detail
/// ("<tenant> prio <p> req <id>").
int request_id(const obs::Event& e) {
  const std::size_t space = e.detail.rfind(' ');
  return std::stoi(e.detail.substr(space + 1));
}

bool is_terminal(const obs::Event& e) {
  return e.name == "fleet.complete" || e.name == "fleet.fail" ||
         e.name == "fleet.shed";
}

class FleetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetProperty, RandomFleetKeepsItsInvariants) {
  const FleetCase c = draw_case(GetParam());
  ASSERT_TRUE(c.config.validate().ok());
  SCOPED_TRACE(faults::render_fault_plan(c.plan));
  const CaseRun run = run_case(c);
  const FleetReport& r = run.report;

  ASSERT_GT(r.submitted, 0);
  EXPECT_EQ(r.submitted, r.admitted + r.rejected_quota);
  EXPECT_EQ(r.admitted, r.completed + r.failed + r.shed);
  EXPECT_LE(r.max_queue_depth, c.config.queue_depth);
  EXPECT_LE(r.accepted_p99, c.config.deadline);
  // A request starts at most max_retries + 1 attempts of its own, plus
  // one per re-placement off a crashed host.
  const long long attempts_each = c.config.retry.max_retries + 1;
  EXPECT_LE(r.dispatches, r.admitted * attempts_each + r.replaced);

  // Cause edges point at earlier fault transitions; nothing else causes.
  std::set<obs::EventId> transitions;
  long long counts[3] = {0, 0, 0};  // complete, fail, shed
  for (const obs::Event& e : run.events) {
    if (e.name == "fault.transition") transitions.insert(e.id);
    if (e.name == "fleet.complete") ++counts[0];
    if (e.name == "fleet.fail") ++counts[1];
    if (e.name == "fleet.shed") ++counts[2];
    if (e.kind == 'I' && e.parent != 0) {
      EXPECT_TRUE(transitions.count(e.parent))
          << e.name << " #" << e.id << " cites #" << e.parent;
    }
  }
  EXPECT_EQ(counts[0], r.completed);
  EXPECT_EQ(counts[1], r.failed);
  EXPECT_EQ(counts[2], r.shed);

  // The run terminates in a record count linear in its work: per attempt
  // a dispatch, an outcome, a retry and breaker edges; per request its
  // admission and terminal records; per fault transition the transition
  // and the breaker edges it forces.
  const long long per_request = 4 + 6 * attempts_each;
  const long long bound = 8 + per_request * r.submitted + 6 * r.replaced +
                          4 * static_cast<long long>(transitions.size());
  EXPECT_LE(static_cast<long long>(run.events.size()), bound);

  if (c.config.batch_window == 0.0) {
    // Per-request admission: fleet.admit stamps the submit instant.
    std::map<int, double> submit;
    std::map<int, int> terminals;
    for (const obs::Event& e : run.events) {
      if (e.name == "fleet.admit") submit[request_id(e)] = e.t_sim;
      if (!is_terminal(e)) continue;
      const int id = request_id(e);
      ++terminals[id];
      ASSERT_TRUE(submit.count(id)) << e.name << " for unadmitted req " << id;
      // Queued requests fail at their deadline, and in-flight attempts
      // time out at it at the latest.
      EXPECT_LE(e.t_sim, submit[id] + c.config.deadline)
          << e.name << " req " << id;
    }
    EXPECT_EQ(static_cast<long long>(submit.size()), r.admitted);
    for (const auto& [id, t] : submit) {
      EXPECT_EQ(terminals[id], 1) << "req " << id << " admitted at " << t;
    }
  } else {
    std::map<int, int> terminals;
    for (const obs::Event& e : run.events) {
      if (is_terminal(e)) ++terminals[request_id(e)];
    }
    for (const auto& [id, n] : terminals) EXPECT_EQ(n, 1) << "req " << id;
  }

  EXPECT_EQ(run_case(c).jsonl, run.jsonl);
}

INSTANTIATE_TEST_SUITE_P(RandomFleets, FleetProperty,
                         ::testing::Range<std::uint64_t>(0, 64));

}  // namespace
}  // namespace numaio::fleet
