// Fleet serving core tests: admission primitives (token bucket, bounded
// shedding queue checked against a naive model), circuit-breaker state
// sequencing, config validation (non-finite times included),
// retry-budget exhaustion, and the full degradation contract
// of the storm scenario — bounded queue, lowest-priority-first sheds,
// accepted p99 within the deadline, crash re-placement, and every
// shed/trip/recovery trace event citing its causing `fault.transition`
// record — plus byte-identical same-seed runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "fleet/admission.h"
#include "fleet/breaker.h"
#include "fleet/fleet.h"
#include "obs/obs.h"
#include "simcore/rng.h"

namespace numaio::fleet {
namespace {

// --- TokenBucket ---------------------------------------------------------

TEST(TokenBucketTest, StartsFullAndDrains) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/3.0);
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_FALSE(bucket.try_take(0.0));
}

TEST(TokenBucketTest, RefillsAtRateAndCapsAtBurst) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(0.0));
  // 10 tokens/s: one token back after 0.1 simulated seconds.
  EXPECT_FALSE(bucket.try_take(0.05e9));
  EXPECT_TRUE(bucket.try_take(0.11e9));
  // A long idle period refills to burst, not beyond.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(100.0e9));
  EXPECT_FALSE(bucket.try_take(100.0e9));
}

TEST(TokenBucketTest, TimeNeverRunsBackwards) {
  TokenBucket bucket(10.0, 2.0);
  EXPECT_TRUE(bucket.try_take(1.0e9));
  EXPECT_TRUE(bucket.try_take(1.0e9));
  EXPECT_FALSE(bucket.try_take(0.5e9));  // stale clock: no refill
  // Nor does a stale clock move the bucket's clock back: 0.1 s after
  // 1 s refills exactly one token.
  EXPECT_TRUE(bucket.try_take(1.1e9));
  EXPECT_FALSE(bucket.try_take(1.1e9));
}

// --- BoundedQueue --------------------------------------------------------

TEST(BoundedQueueTest, PopsHighestPriorityFifoWithinLevel) {
  BoundedQueue q(8);
  q.push({1, 0});
  q.push({2, 5});
  q.push({3, 5});
  q.push({4, 2});
  EXPECT_EQ(q.pop().request, 2);  // highest priority, earliest arrival
  EXPECT_EQ(q.pop().request, 3);
  EXPECT_EQ(q.pop().request, 4);
  EXPECT_EQ(q.pop().request, 1);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueueTest, ShedsLowestPriorityLatestArrivalWhenFull) {
  BoundedQueue q(3);
  q.push({1, 1});
  q.push({2, 0});
  q.push({3, 0});
  // Full. A higher-priority push evicts the latest-arrived lowest item.
  const auto r = q.push({4, 2});
  EXPECT_TRUE(r.accepted);
  EXPECT_TRUE(r.shed);
  EXPECT_EQ(r.victim.request, 3);
  EXPECT_EQ(q.depth(), 3);
}

TEST(BoundedQueueTest, IncomingItemIsShedWhenItDoesNotOutrank) {
  BoundedQueue q(2);
  q.push({1, 1});
  q.push({2, 1});
  const auto r = q.push({3, 1});  // ties do not displace queued work
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.shed);
  EXPECT_EQ(r.victim.request, 3);
  EXPECT_EQ(q.depth(), 2);
}

TEST(BoundedQueueTest, DepthNeverExceedsMaxAndShedIsAlwaysMinimum) {
  BoundedQueue q(4);
  std::vector<int> priorities = {2, 0, 1, 3, 1, 0, 2, 3, 0, 1};
  for (int i = 0; i < static_cast<int>(priorities.size()); ++i) {
    const auto r = q.push({i, priorities[static_cast<std::size_t>(i)]});
    ASSERT_LE(q.depth(), 4);
    if (r.shed) {
      // Contract: the victim's priority is <= everything still queued.
      BoundedQueue copy = q;
      while (!copy.empty()) {
        EXPECT_LE(r.victim.priority, copy.pop().priority);
      }
    }
  }
}

TEST(BoundedQueueTest, RemoveDropsTheNamedRequest) {
  BoundedQueue q(4);
  q.push({1, 0});
  q.push({2, 1});
  EXPECT_TRUE(q.remove(1));
  EXPECT_FALSE(q.remove(1));
  EXPECT_EQ(q.pop().request, 2);
}

TEST(BoundedQueueTest, PopAndShedTakeOppositeEnds) {
  BoundedQueue q(4);
  q.push({0, 1});
  q.push({1, 3});
  q.push({2, 1});
  q.push({3, 3});
  // Pop takes the highest level's earliest arrival, shed the lowest
  // level's latest: a priority-2 arrival into the full queue evicts 2.
  const auto r = q.push({4, 2});
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.victim.request, 2);
  EXPECT_EQ(q.pop().request, 1);
  EXPECT_EQ(q.pop().request, 3);
  EXPECT_EQ(q.pop().request, 4);
  EXPECT_EQ(q.pop().request, 0);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueueTest, RemoveKeepsEveryLevelsOrder) {
  BoundedQueue q(8);
  for (int i = 0; i < 6; ++i) q.push({i, i % 2});
  EXPECT_TRUE(q.remove(3));
  EXPECT_FALSE(q.remove(3));  // already gone
  EXPECT_FALSE(q.remove(99));
  EXPECT_EQ(q.depth(), 5);
  std::vector<int> popped;
  while (!q.empty()) popped.push_back(q.pop().request);
  EXPECT_EQ(popped, (std::vector<int>{1, 5, 0, 2, 4}));
}

// A deliberately naive model of the BoundedQueue contract: one flat
// vector in arrival order, scanned linearly for pop and shed.
class NaiveQueue {
 public:
  explicit NaiveQueue(int max_depth) : max_depth_(max_depth) {}

  BoundedQueue::PushResult push(QueueItem item) {
    BoundedQueue::PushResult r;
    if (depth() < max_depth_) {
      items_.push_back(item);
      r.accepted = true;
      return r;
    }
    // Victim: the latest arrival among the lowest priority present.
    std::size_t v = items_.size() - 1;
    for (std::size_t i = items_.size() - 1; i-- > 0;) {
      if (items_[i].priority < items_[v].priority) v = i;
    }
    r.shed = true;
    if (item.priority > items_[v].priority) {
      r.victim = items_[v];
      items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(v));
      items_.push_back(item);
      r.accepted = true;
    } else {
      r.victim = item;
    }
    return r;
  }

  QueueItem pop() {
    // The earliest arrival among the highest priority present.
    std::size_t best = 0;
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].priority > items_[best].priority) best = i;
    }
    const QueueItem out = items_[best];
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(best));
    return out;
  }

  bool remove(int request) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->request != request) continue;
      items_.erase(it);
      return true;
    }
    return false;
  }

  int depth() const { return static_cast<int>(items_.size()); }

 private:
  int max_depth_;
  std::vector<QueueItem> items_;
};

class BoundedQueueProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BoundedQueueProperty, MatchesNaiveReference) {
  // Replays one randomized push/pop/remove trace against the naive model:
  // verdicts, victims, pop order and depths must agree at every step. The
  // trace runs well past the depth bound, so the shed path is exercised
  // constantly.
  sim::Rng rng(GetParam() * 7919 + 1234);
  BoundedQueue queue(/*max_depth=*/24);
  NaiveQueue reference(/*max_depth=*/24);
  int next_request = 0;
  long long sheds = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 6) {
      const QueueItem item{next_request++, static_cast<int>(rng.below(4))};
      const auto a = reference.push(item);
      const auto b = queue.push(item);
      ASSERT_EQ(a.accepted, b.accepted) << "op " << op;
      ASSERT_EQ(a.shed, b.shed) << "op " << op;
      ASSERT_EQ(a.victim.request, b.victim.request) << "op " << op;
      ASSERT_EQ(a.victim.priority, b.victim.priority) << "op " << op;
      if (b.shed) ++sheds;
    } else if (pick < 9) {
      ASSERT_EQ(reference.depth() == 0, queue.empty()) << "op " << op;
      if (!queue.empty()) {
        const QueueItem a = reference.pop();
        const QueueItem b = queue.pop();
        ASSERT_EQ(a.request, b.request) << "op " << op;
        ASSERT_EQ(a.priority, b.priority) << "op " << op;
      }
    } else if (next_request > 0) {
      const int target = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(next_request)));
      ASSERT_EQ(reference.remove(target), queue.remove(target)) << "op " << op;
    }
    ASSERT_EQ(reference.depth(), queue.depth()) << "op " << op;
    ASSERT_LE(queue.depth(), queue.max_depth());
  }
  // The trace must actually have shed, or the property never touched the
  // interesting path.
  EXPECT_GT(sheds, 100);
}

INSTANTIATE_TEST_SUITE_P(RandomQueueTraces, BoundedQueueProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- CircuitBreaker ------------------------------------------------------

BreakerConfig small_breaker() {
  BreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown = 1.0e9;
  config.probe_successes = 2;
  return config;
}

TEST(CircuitBreakerTest, ConsecutiveFailuresTripSuccessResets) {
  CircuitBreaker b(small_breaker());
  b.on_failure(0.0, false, "timeout");
  b.on_failure(0.0, false, "timeout");
  b.on_success(0.0, 1.0e6, false);  // streak broken
  b.on_failure(0.0, false, "timeout");
  b.on_failure(0.0, false, "timeout");
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.on_failure(0.0, false, "timeout");
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 1);
}

TEST(CircuitBreakerTest, HalfOpenProbeSequencing) {
  CircuitBreaker b(small_breaker());
  b.trip(0.0, "crash");
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.can_accept(0.5e9));  // cooldown still running
  EXPECT_TRUE(b.can_accept(1.0e9));

  bool probe = false;
  ASSERT_TRUE(b.try_acquire(1.0e9, &probe));
  EXPECT_TRUE(probe);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  // One probe at a time: a second dispatch is refused while it is out.
  bool probe2 = false;
  EXPECT_FALSE(b.try_acquire(1.0e9, &probe2));

  b.on_success(1.1e9, 1.0e6, /*probe=*/true);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);  // needs 2 successes
  ASSERT_TRUE(b.try_acquire(1.1e9, &probe));
  EXPECT_TRUE(probe);
  b.on_success(1.2e9, 1.0e6, /*probe=*/true);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker b(small_breaker());
  b.trip(0.0, "crash");
  bool probe = false;
  ASSERT_TRUE(b.try_acquire(1.0e9, &probe));
  b.on_failure(1.1e9, /*probe=*/true, "timeout");
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 2);
  EXPECT_FALSE(b.can_accept(1.5e9));
  EXPECT_DOUBLE_EQ(b.reopen_at(), 2.1e9);
}

TEST(CircuitBreakerTest, P99BreachTripsOnceWindowIsFull) {
  BreakerConfig config;
  config.failure_threshold = 1000;  // only the p99 path can trip
  config.p99_limit = 10.0e6;
  config.latency_window = 4;
  CircuitBreaker b(config);
  for (int i = 0; i < 3; ++i) b.on_success(0.0, 50.0e6, false);
  EXPECT_EQ(b.state(), BreakerState::kClosed);  // window not yet full
  b.on_success(0.0, 50.0e6, false);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, TransitionCallbackSeesEveryEdge) {
  CircuitBreaker b(small_breaker());
  std::vector<std::string> edges;
  b.set_transition_callback([&](BreakerState from, BreakerState to, sim::Ns,
                                const char* reason) {
    edges.push_back(std::string(to_string(from)) + ">" + to_string(to) +
                    ":" + reason);
  });
  b.trip(0.0, "crash");
  bool probe = false;
  b.try_acquire(1.0e9, &probe);
  b.on_success(1.1e9, 1e6, true);
  b.try_acquire(1.1e9, &probe);
  b.on_success(1.2e9, 1e6, true);
  const std::vector<std::string> want = {"closed>open:crash",
                                         "open>half-open:cooldown",
                                         "half-open>closed:probes"};
  EXPECT_EQ(edges, want);
}

// --- admission status ----------------------------------------------------

TEST(AdmissionStatusTest, RejectionIsTypedOverloaded) {
  EXPECT_TRUE(admission_status(true, "").ok());
  const Status s = admission_status(false, "tenant quota exceeded");
  EXPECT_EQ(s.code, StatusCode::kOverloaded);
  EXPECT_EQ(s.message, "tenant quota exceeded");
}

// --- FleetSim ------------------------------------------------------------

TEST(FleetSimTest, RejectsDegenerateConfigs) {
  EXPECT_THROW(FleetSim(FleetConfig{}, {}), StatusError);
  FleetConfig config;
  config.num_hosts = 0;
  EXPECT_THROW(FleetSim(config, {TenantSpec{}}), StatusError);
  try {
    FleetSim sim(config, {TenantSpec{}});
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kUsage);
  }
}

TEST(FleetSimTest, RejectsNonFiniteTimes) {
  // A NaN slips past every range check, an infinite horizon never stops
  // arrivals, and the run ends at the latest admitted deadline: each is a
  // typed usage error, from validate() and from the constructor alike.
  using Setter = void (*)(FleetConfig&, double);
  const Setter setters[] = {
      [](FleetConfig& c, double v) { c.deadline = v; },
      [](FleetConfig& c, double v) { c.horizon = v; },
      [](FleetConfig& c, double v) { c.batch_window = v; },
      [](FleetConfig& c, double v) { c.completion_grid = v; },
      [](FleetConfig& c, double v) { c.summary_refresh = v; },
      [](FleetConfig& c, double v) { c.retry.timeout = v; },
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const Setter set : setters) {
    for (const double bad :
         {inf, -inf, std::numeric_limits<double>::quiet_NaN()}) {
      FleetConfig config;
      set(config, bad);
      EXPECT_EQ(config.validate().code, StatusCode::kUsage) << bad;
      EXPECT_THROW(FleetSim(config, {TenantSpec{}}), StatusError) << bad;
    }
  }
  for (const double bad : {0.0, -1.0e9}) {
    FleetConfig config;
    config.deadline = bad;
    EXPECT_EQ(config.validate().code, StatusCode::kUsage) << bad;
  }
  EXPECT_TRUE(FleetConfig{}.validate().ok());
}

/// All hosts hang for the whole run: every attempt times out, so retries
/// burn until the per-tenant budget is gone and requests fail typed.
TEST(FleetSimTest, RetryBudgetExhaustionUnderTotalHang) {
  FleetConfig config;
  config.num_hosts = 2;
  config.seed = 9;
  config.horizon = 0.4e9;
  config.deadline = 0.35e9;
  config.retry.max_retries = 10;       // budget binds first
  config.retry.timeout = 0.04e9;
  config.retry.base_backoff = 1.0e6;
  config.retry.max_backoff = 4.0e6;
  TenantSpec tenant;
  tenant.name = "stuck";
  tenant.arrival_rate_per_s = 30.0;
  tenant.quota_rate_per_s = 100.0;
  tenant.retry_budget = 2;

  faults::FaultPlan plan;
  for (int h = 0; h < config.num_hosts; ++h) {
    faults::FaultEvent hang;
    hang.kind = faults::FaultKind::kHostHang;
    hang.host = h;
    hang.start = 0.0;
    hang.duration = 1.0e9;
    plan.add(hang);
  }

  obs::Context ctx;
  obs::MemorySink capture;
  ctx.trace.set_sink(&capture);
  FleetSim sim(config, {tenant});
  sim.set_fault_plan(plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  EXPECT_GT(report.admitted, 0);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.failed, report.admitted);
  EXPECT_EQ(report.retries, 2);  // exactly the budget
  bool saw_budget_exhausted = false;
  for (const auto& e : capture.events) {
    if (e.name == "fleet.fail" && e.outcome == "retry-budget") {
      saw_budget_exhausted = true;
    }
  }
  EXPECT_TRUE(saw_budget_exhausted);
}

TEST(FleetSimTest, CalmFleetCompletesEverythingAdmitted) {
  // Control: same shape with no faults and mild load completes all
  // admitted work within deadline.
  FleetConfig config;
  config.num_hosts = 2;
  config.seed = 3;
  config.horizon = 1.0e9;
  TenantSpec tenant;
  tenant.name = "calm";
  tenant.arrival_rate_per_s = 50.0;
  tenant.quota_rate_per_s = 80.0;
  FleetSim sim(config, {tenant});
  const FleetReport report = sim.run();
  EXPECT_GT(report.admitted, 0);
  EXPECT_EQ(report.completed, report.admitted);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.failed, 0);
  EXPECT_LE(report.accepted_p99, config.deadline);
}

/// The ISSUE's acceptance scenario: seeded overload + one host crash.
/// Asserts the whole degradation contract on one captured run.
TEST(FleetSimTest, StormHonorsTheDegradationContract) {
  // Offered load sits just above 3-host capacity (~215 req/s per host);
  // the bounded queue rides out the mild overload until the crash removes
  // a third of the fleet — every shed is then a consequence of the fault
  // and must cite it.
  StormScenario storm =
      make_storm(/*num_hosts=*/3, /*num_tenants=*/3, /*offered_rps=*/700.0,
                 /*seed=*/11, /*horizon=*/2.0e9);
  obs::Context ctx;
  obs::MemorySink capture;
  ctx.trace.set_sink(&capture);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  // No unbounded queue growth: depth never exceeded the configured bound.
  EXPECT_GT(report.submitted, 0);
  EXPECT_LE(report.max_queue_depth, storm.config.queue_depth);

  // Overload + a lost host actually shed work, and shed lowest-first:
  // the lowest-priority tenant takes the sheds, the highest loses none.
  ASSERT_EQ(report.tenants.size(), 3u);
  EXPECT_GT(report.shed, 0);
  EXPECT_GT(report.tenants[0].shed, 0);
  EXPECT_EQ(report.tenants[2].shed, 0);

  // Accepted requests stayed within the deadline bound.
  EXPECT_GT(report.completed, 0);
  EXPECT_LE(report.accepted_p99, storm.config.deadline);

  // The crash was noticed and survived: breaker tripped, in-flight work
  // re-placed, and the fleet still completed most of what it admitted.
  EXPECT_GE(report.breaker_trips, 1);
  EXPECT_GT(report.replaced, 0);
  EXPECT_GT(report.completed, report.admitted / 2);

  // Every shed / replace / breaker decision cites a causing
  // fault.transition record id present in the same capture.
  std::set<obs::EventId> transitions;
  for (const auto& e : capture.events) {
    if (e.name == "fault.transition") transitions.insert(e.id);
  }
  ASSERT_FALSE(transitions.empty());
  int audited = 0;
  for (const auto& e : capture.events) {
    if (e.name == "fleet.shed" || e.name == "fleet.replace" ||
        e.name == "fleet.breaker") {
      ++audited;
      EXPECT_NE(e.parent, 0u) << e.name << " at t=" << e.t_sim;
      EXPECT_TRUE(transitions.count(e.parent)) << e.name;
    }
  }
  EXPECT_GT(audited, 0);

  // Breaker recovery (half-open probes closing it) is in the record.
  bool saw_recovery = false;
  for (const auto& e : capture.events) {
    if (e.name == "fleet.breaker" && e.outcome == "closed") {
      saw_recovery = true;
    }
  }
  EXPECT_TRUE(saw_recovery);
}

std::string serialized_storm_run(std::uint64_t seed) {
  StormScenario storm = make_storm(3, 3, 700.0, seed, 1.5e9);
  std::ostringstream out;
  obs::Context ctx;
  obs::JsonlSink sink(out);
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&sink);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  sim.run();
  return out.str();
}

TEST(FleetSimTest, SameSeedRunsAreByteIdentical) {
  const std::string a = serialized_storm_run(21);
  const std::string b = serialized_storm_run(21);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, serialized_storm_run(22));
}

}  // namespace
}  // namespace numaio::fleet
