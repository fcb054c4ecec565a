// Fleet-scale request path tests (DESIGN.md §12): whole-run properties
// of the scale scenario — batched epochs replacing per-request
// admit/reject events with the same quota verdicts, mixed-SKU class
// placement, overload shedding, and retry budgets that stay per tenant. Every scale run here uses >= 2,000
// tenants.
#include <gtest/gtest.h>

#include <cstddef>

#include "fleet/fleet.h"
#include "obs/obs.h"

namespace numaio::fleet {
namespace {

constexpr int kTenants = 2000;

TEST(FleetScaleTest, BatchedEpochsReplacePerRequestAdmissionEvents) {
  StormScenario storm =
      make_scale_storm(8, kTenants, 30000.0, /*seed=*/5, /*horizon=*/0.4e9);
  obs::Context ctx;
  obs::MemorySink capture;
  ctx.trace.set_sink(&capture);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  ASSERT_GT(report.submitted, 0);
  EXPECT_GT(report.completed, 0);

  long long epochs = 0;
  long long arrivals_spanned = 0;
  for (const auto& e : capture.events) {
    if (e.kind != 'B' || e.name != "fleet.admit_batch") continue;
    ++epochs;
    arrivals_spanned += e.bytes;
  }
  // Epochs coalesce arrivals: far fewer spans than requests, but every
  // submitted request is accounted to exactly one epoch.
  ASSERT_GT(epochs, 0);
  EXPECT_LT(epochs, report.submitted);
  EXPECT_EQ(arrivals_spanned, report.submitted);
  // And the per-request admission events are gone in batched mode.
  for (const auto& e : capture.events) {
    EXPECT_NE(e.name, "fleet.admit");
    EXPECT_NE(e.name, "fleet.reject");
  }

  // Placement latency (admission -> first dispatch) is ordered sanely;
  // at this light load most requests dispatch within their own epoch.
  EXPECT_GE(report.placement_p99, 0.0);
  EXPECT_LE(report.placement_p50, report.placement_p99);
}

TEST(FleetScaleTest, BatchVerdictsMatchPerRequestPath) {
  // Batched epochs refill each tenant's bucket to the request's original
  // submit time, so every tenant's quota verdicts are exactly those of
  // the per-request path; only dispatch timing differs. Tight quotas make
  // the buckets actually say no.
  const auto run = [](sim::Ns batch_window) {
    StormScenario storm = make_scale_storm(
        /*num_hosts=*/4, /*num_tenants=*/kTenants, /*offered_rps=*/30000.0,
        /*seed=*/11, /*horizon=*/0.3e9);
    storm.config.batch_window = batch_window;
    for (TenantSpec& t : storm.tenants) {
      t.quota_rate_per_s = t.arrival_rate_per_s * 0.5;
      t.quota_burst = 1.0;
    }
    FleetSim sim(storm.config, storm.tenants);
    sim.set_fault_plan(storm.plan);
    return sim.run();
  };
  const FleetReport batched = run(2.0e6);
  const FleetReport per_request = run(0.0);

  ASSERT_GT(batched.rejected_quota, 0);
  ASSERT_GT(batched.admitted, 0);
  EXPECT_EQ(batched.submitted, per_request.submitted);
  EXPECT_EQ(batched.admitted, per_request.admitted);
  EXPECT_EQ(batched.rejected_quota, per_request.rejected_quota);
  ASSERT_EQ(batched.tenants.size(), per_request.tenants.size());
  for (std::size_t t = 0; t < batched.tenants.size(); ++t) {
    EXPECT_EQ(batched.tenants[t].submitted, per_request.tenants[t].submitted)
        << "tenant " << t;
    EXPECT_EQ(batched.tenants[t].rejected_quota,
              per_request.tenants[t].rejected_quota)
        << "tenant " << t;
  }
}

TEST(FleetScaleTest, MixedSkuFleetSplitsIntoClassesAndSpreads) {
  // make_scale_storm marks every third host as the lite SKU (~55% of the
  // ConnectX-3 ceilings): with 6 hosts, 2 and 5 run the slow NIC. The
  // gap classifier must see two capacity populations, and the
  // class-spread cursor must actually serve from more than one class.
  StormScenario storm = make_scale_storm(
      /*num_hosts=*/6, /*num_tenants=*/kTenants, /*offered_rps=*/30000.0,
      /*seed=*/7, /*horizon=*/0.4e9);
  obs::Context ctx;
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  EXPECT_GT(report.completed, 0);
  EXPECT_GE(ctx.metrics.value("placement.class_count"), 2.0);
  EXPECT_GT(ctx.metrics.value("placement.class_spread"), 0.0);
  // The completion-alarm instrumentation of the scale scenario is live.
  EXPECT_GT(ctx.metrics.value("engine.lane_events"), 0.0);
  EXPECT_GT(ctx.metrics.value("engine.lane_rounds"), 0.0);
}

TEST(FleetScaleTest, SheddingIsSpreadFairlyAcrossShards) {
  // Overload a small fleet hard enough that the bounded queue sheds.
  StormScenario storm = make_scale_storm(
      /*num_hosts=*/2, /*num_tenants=*/kTenants, /*offered_rps=*/60000.0,
      /*seed=*/17, /*horizon=*/0.4e9);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  const FleetReport report = sim.run();

  ASSERT_GT(report.shed, 0);
  // With a real backlog, placement latency is measurable and positive.
  EXPECT_GT(report.placement_p99, 0.0);
  EXPECT_LE(report.placement_p50, report.placement_p99);
}

TEST(FleetScaleTest, RetryBudgetsStayPerTenantUnderLoad) {
  // A run where retries happen (host crash mid-run) must never push any
  // tenant past its own budget: retries are per-tenant state, not a
  // shared pool that a hot tenant could drain.
  StormScenario storm =
      make_scale_storm(4, kTenants, 20000.0, /*seed=*/23, /*horizon=*/0.5e9);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  const FleetReport report = sim.run();

  ASSERT_EQ(report.tenants.size(), static_cast<std::size_t>(kTenants));
  const long long budget = storm.tenants.front().retry_budget;
  long long total_retries = 0;
  for (const auto& t : report.tenants) {
    EXPECT_LE(t.retries, budget) << t.name;
    total_retries += t.retries;
  }
  EXPECT_EQ(total_retries, report.retries);
}

}  // namespace
}  // namespace numaio::fleet
