// Degraded-mode pipeline tests: retry/backoff and timeout aborts in the
// fio runner and their trace correlation, fault-free Algorithm 1 runs,
// typed usage errors for hostile library configs, and online migration
// away from fault-degraded nodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "io/fio.h"
#include "io/nic.h"
#include "io/testbed.h"
#include "model/characterize.h"
#include "model/online.h"
#include "model/validate.h"
#include "model/workload.h"
#include "obs/obs.h"
#include "simcore/status.h"

namespace numaio {
namespace {

using model::Direction;

faults::FaultEvent mc_throttle(topo::NodeId node, sim::Ns start, sim::Ns dur,
                               double sev) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kMcThrottle;
  e.node = node;
  e.start = start;
  e.duration = dur;
  e.severity = sev;
  return e;
}

io::FioJob basic_job(io::Testbed& tb, int streams, sim::Bytes bytes) {
  io::FioJob job;
  job.devices = {&tb.nic()};
  job.engine = io::kRdmaRead;
  job.cpu_node = 2;
  job.num_streams = streams;
  job.bytes_per_stream = bytes;
  return job;
}

// --- fio runner: timeouts, retries, partial results ----------------------

TEST(DegradedFio, TimeoutExhaustionAbortsWithPartialResult) {
  io::Testbed tb = io::Testbed::dl585();
  io::FioJob job = basic_job(tb, 1, 40 * sim::kGiB);
  job.retry.timeout = 1.0e6;  // 1 ms: a 40 GiB stream can never finish
  job.retry.max_retries = 2;

  io::FioRunner fio(tb.host());
  const io::FioResult result = fio.run(job);
  ASSERT_EQ(result.streams.size(), 1u);
  const io::FioStreamStats& st = result.streams.front();
  EXPECT_FALSE(st.outcome.ok);
  EXPECT_TRUE(st.outcome.aborted);
  EXPECT_EQ(st.outcome.retries, 2);
  EXPECT_LT(st.outcome.confidence, 0.5);
  // Partial progress is banked across attempts, not thrown away.
  EXPECT_GT(st.bytes_moved, 0);
  EXPECT_LT(st.bytes_moved, job.bytes_per_stream);
  EXPECT_EQ(result.aborted_streams, 1);
  EXPECT_EQ(result.total_retries, 2);
  EXPECT_TRUE(result.degraded);
}

TEST(DegradedFio, GenerousTimeoutMatchesFaultFreeExactly) {
  io::Testbed tb = io::Testbed::dl585();
  io::FioRunner fio(tb.host());
  io::FioJob plain = basic_job(tb, 4, 4 * sim::kGiB);
  io::FioJob guarded = plain;
  guarded.retry.timeout = 1.0e15;  // never fires

  const io::FioResult a = fio.run(plain);
  const io::FioResult b = fio.run(guarded);
  EXPECT_EQ(a.aggregate, b.aggregate);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_FALSE(b.degraded);
  for (const io::FioStreamStats& st : b.streams) {
    EXPECT_TRUE(st.outcome.ok);
    EXPECT_EQ(st.outcome.retries, 0);
    EXPECT_DOUBLE_EQ(st.outcome.confidence, 1.0);
    EXPECT_EQ(st.bytes_moved, 4 * sim::kGiB);
  }
}

TEST(DegradedFio, DeviceStallAbortsInFlightStreamsThenRecovers) {
  io::Testbed tb = io::Testbed::dl585();
  faults::FaultPlan plan;
  faults::FaultEvent stall;
  stall.kind = faults::FaultKind::kDeviceStall;
  stall.device = 0;
  stall.start = 5.0e9;
  stall.duration = 2.0e9;
  plan.add(stall);
  faults::FaultInjector injector(tb.machine(), std::move(plan));
  injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                           tb.nic().fault_resources());

  io::FioJob job = basic_job(tb, 2, 40 * sim::kGiB);  // runs well past 5 s
  job.retry.timeout = 30.0e9;
  job.retry.max_retries = 3;

  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  const io::FioResult result = fio.run(job);
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(result.total_retries, 1);
  EXPECT_EQ(result.aborted_streams, 0);  // retries carried them through
  for (const io::FioStreamStats& st : result.streams) {
    EXPECT_TRUE(st.outcome.ok);
    EXPECT_EQ(st.bytes_moved, 40 * sim::kGiB);
    EXPECT_LT(st.outcome.confidence, 1.0);
  }
}

TEST(DegradedFio, OnlyADeviceStallWindowAbortsStreams) {
  // A memory-controller throttle that names device 0 (a plan file may set
  // the field on any kind) opens while the NIC's streams run, and aborts
  // none of them: only a device-stall window does.
  io::Testbed tb = io::Testbed::dl585();
  faults::FaultPlan plan;
  faults::FaultEvent throttle = mc_throttle(2, 5.0e9, 2.0e9, 0.5);
  throttle.device = 0;
  plan.add(throttle);
  faults::FaultInjector injector(tb.machine(), std::move(plan));
  ASSERT_EQ(injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                                     tb.nic().fault_resources()),
            0);

  io::FioJob job = basic_job(tb, 2, 40 * sim::kGiB);  // runs well past 5 s
  job.retry.timeout = 1.0e15;  // never fires
  job.retry.max_retries = 3;

  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  const io::FioResult result = fio.run(job);
  EXPECT_GT(result.duration, 7.0e9);
  EXPECT_EQ(result.total_retries, 0);
  EXPECT_EQ(result.aborted_streams, 0);
  for (const io::FioStreamStats& st : result.streams) {
    EXPECT_TRUE(st.outcome.ok);
    EXPECT_EQ(st.outcome.retries, 0);
    EXPECT_EQ(st.bytes_moved, 40 * sim::kGiB);
  }
}

// --- observability of degraded runs ---------------------------------------

TEST(DegradedObservability, AbortedStreamsEmitCorrelatedRetryEvents) {
  io::Testbed tb = io::Testbed::dl585();
  faults::FaultPlan plan;
  faults::FaultEvent stall;
  stall.kind = faults::FaultKind::kDeviceStall;
  stall.device = 0;
  stall.start = 5.0e9;
  stall.duration = 2.0e9;
  plan.add(stall);
  faults::FaultInjector injector(tb.machine(), std::move(plan));
  injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                           tb.nic().fault_resources());

  obs::MemorySink sink;
  obs::Context ctx;
  ctx.trace.set_sink(&sink);
  injector.set_observer(&ctx);

  io::FioJob job = basic_job(tb, 2, 40 * sim::kGiB);
  job.retry.timeout = 30.0e9;
  job.retry.max_retries = 3;

  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  fio.set_observer(&ctx);
  const io::FioResult result = fio.run(job);
  EXPECT_TRUE(result.degraded);

  // The device stall's transition event must precede (and be cited by)
  // every retry the aborted attempts triggered.
  obs::EventId transition = 0;
  for (const obs::Event& e : sink.events) {
    if (e.name == "fault.transition" && e.outcome == "on") {
      transition = e.id;
      break;
    }
  }
  ASSERT_NE(transition, 0u);
  int correlated_retries = 0;
  for (const obs::Event& e : sink.events) {
    if (e.name != "fio.retry") continue;
    EXPECT_EQ(e.parent, transition);
    EXPECT_GT(e.id, transition);
    ++correlated_retries;
  }
  EXPECT_GE(correlated_retries, 1);
  EXPECT_EQ(ctx.metrics.value("fio.retries"),
            static_cast<double>(result.total_retries));
  EXPECT_EQ(ctx.metrics.value("faults.transitions"), 2.0);  // on + off

  // Span sanity: every stream span nests under a job span.
  obs::SpanId job_span = 0;
  for (const obs::Event& e : sink.events) {
    if (e.kind == 'B' && e.name == "fio.job") job_span = e.id;
    if (e.kind == 'B' && e.name == "fio.stream") {
      EXPECT_EQ(e.parent, job_span);
    }
  }
  ASSERT_NE(job_span, 0u);
}

TEST(DegradedObservability, RetryBudgetExhaustionEmitsAbortWithCause) {
  io::Testbed tb = io::Testbed::dl585();
  faults::FaultPlan plan;
  plan.add(mc_throttle(2, 0.0, 1.0e15, 0.95));  // cripples node 2 forever
  faults::FaultInjector injector(tb.machine(), std::move(plan));

  obs::MemorySink sink;
  obs::Context ctx;
  ctx.trace.set_sink(&sink);
  injector.set_observer(&ctx);

  io::FioJob job = basic_job(tb, 1, 40 * sim::kGiB);
  job.retry.timeout = 5.0e9;  // generous healthy, hopeless throttled
  job.retry.max_retries = 1;

  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  fio.set_observer(&ctx);
  const io::FioResult result = fio.run(job);
  ASSERT_EQ(result.aborted_streams, 1);

  obs::EventId transition = 0;
  const obs::Event* abort_event = nullptr;
  for (const obs::Event& e : sink.events) {
    if (e.name == "fault.transition" && e.outcome == "on") transition = e.id;
    if (e.name == "fio.abort") abort_event = &e;
  }
  ASSERT_NE(transition, 0u);
  ASSERT_NE(abort_event, nullptr);
  // The abort cites the capacity fault that was active at the deadline.
  EXPECT_EQ(abort_event->parent, transition);
  EXPECT_EQ(abort_event->outcome, "abort");
  EXPECT_EQ(ctx.metrics.value("fio.aborted_streams"), 1.0);
}

TEST(DegradedObservability, OnlineMigrationCitesActiveFault) {
  io::Testbed tb = io::Testbed::dl585();
  const auto write_model =
      model::build_iomodel(tb.host(), 7, Direction::kDeviceWrite);
  const auto read_model =
      model::build_iomodel(tb.host(), 7, Direction::kDeviceRead);
  const auto write_classes =
      model::classify(write_model, tb.machine().topology());
  const auto read_classes =
      model::classify(read_model, tb.machine().topology());

  std::vector<model::IoTask> tasks(1);
  tasks[0].engine = io::kRdmaRead;
  tasks[0].bytes = 64 * sim::kGiB;
  tasks[0].arrival = 0.0;

  model::OnlineConfig config;
  config.policy = model::OnlinePolicy::kModelAdaptive;
  model::OnlineScheduler plain(tb.host(), tb.nic(), write_classes,
                               read_classes, config);
  const topo::NodeId home = plain.run(tasks).tasks[0].first_node;

  faults::FaultPlan plan;
  plan.add(mc_throttle(home, 0.05e9, 1.0e15, 0.9));
  faults::FaultInjector injector(tb.machine(), std::move(plan));

  obs::MemorySink sink;
  obs::Context ctx;
  ctx.trace.set_sink(&sink);
  injector.set_observer(&ctx);

  model::OnlineScheduler degraded(tb.host(), tb.nic(), write_classes,
                                  read_classes, config);
  degraded.set_fault_injector(&injector);
  degraded.set_observer(&ctx);
  const auto report = degraded.run(tasks);
  ASSERT_GE(report.total_migrations, 1);

  obs::EventId transition = 0;
  const obs::Event* migrate = nullptr;
  obs::SpanId run_span = 0;
  for (const obs::Event& e : sink.events) {
    if (e.kind == 'B' && e.name == "online.run") run_span = e.id;
    if (e.name == "fault.transition" && e.outcome == "on") transition = e.id;
    if (e.name == "sched.migrate" && migrate == nullptr) migrate = &e;
  }
  ASSERT_NE(run_span, 0u);
  ASSERT_NE(transition, 0u);
  ASSERT_NE(migrate, nullptr);
  EXPECT_EQ(migrate->span, run_span);
  EXPECT_EQ(migrate->parent, transition);  // migration blamed on the fault
  EXPECT_EQ(migrate->node_a, home);
  EXPECT_NE(migrate->node_b, home);
  EXPECT_EQ(ctx.metrics.value("sched.migrations"),
            static_cast<double>(report.total_migrations));
}

// --- characterization -----------------------------------------------------

TEST(DegradedIoModel, FaultFreeRunsAreDeterministicAndClean) {
  io::Testbed tb = io::Testbed::dl585();
  model::IoModelConfig config;
  config.repetitions = 20;
  const auto a =
      model::build_iomodel(tb.host(), 7, Direction::kDeviceRead, config);
  const auto b =
      model::build_iomodel(tb.host(), 7, Direction::kDeviceRead, config);
  ASSERT_EQ(a.bw.size(), b.bw.size());
  for (std::size_t i = 0; i < a.bw.size(); ++i) {
    EXPECT_EQ(a.bw[i], b.bw[i]) << i;
  }
}

// --- hostile library configs ----------------------------------------------

// Each checked config field, set to a value its type holds but the code
// cannot use, is a usage error that names the field. The checks run on
// entry: no trace record is written and no buffer is allocated.
TEST(HostileConfig, EveryCheckedFieldIsAUsageErrorNamingIt) {
  io::Testbed tb = io::Testbed::dl585();
  obs::MemorySink sink;
  obs::Context ctx;
  ctx.trace.set_sink(&sink);
  const topo::Topology& topo = tb.machine().topology();
  const model::IoModelResult write_model =
      model::build_iomodel(tb.host(), 7, Direction::kDeviceWrite,
                           model::IoModelConfig{.repetitions = 3});
  // numastat counts every allocation as a hit or a miss.
  const auto allocations = [&] {
    std::uint64_t count = 0;
    for (topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
      const nm::NodeStats& stats = tb.host().stats().node(n);
      count += stats.numa_hit + stats.numa_miss;
    }
    return count;
  };
  const std::uint64_t allocated_before = allocations();

  constexpr int kIntMin = std::numeric_limits<int>::min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  model::WorkloadConfig workload;
  workload.engine_mix = {io::kRdmaWrite};

  struct Case {
    std::string entry;  ///< The function that must reject the config.
    std::string field;
    std::string value;
    std::function<void()> call;
  };
  std::vector<Case> cases;
  for (const int reps : {0, -1, -5, kIntMin}) {
    const std::string value = std::to_string(reps);
    model::IoModelConfig iomodel;
    iomodel.repetitions = reps;
    iomodel.obs = &ctx;
    cases.push_back({"build_iomodel", "repetitions", value, [&, iomodel] {
                       model::build_iomodel(tb.host(), 7,
                                            Direction::kDeviceWrite, iomodel);
                     }});
    cases.push_back({"characterize_host", "repetitions", value,
                     [&, iomodel] {
                       model::characterize_host(tb.host(), {iomodel});
                     }});
    model::ValidateConfig validate;
    validate.iomodel_repetitions = reps;
    cases.push_back({"validate_methodology", "iomodel_repetitions", value,
                     [&, validate] {
                       model::validate_methodology(tb, validate);
                     }});
  }
  for (const int n : {0, -5, kIntMin}) {
    model::WorkloadConfig bad = workload;
    bad.num_tasks = n;
    cases.push_back({"generate_workload", "num_tasks", std::to_string(n),
                     [bad] { model::generate_workload(bad); }});
  }
  model::WorkloadConfig no_mix = workload;
  no_mix.engine_mix.clear();
  cases.push_back({"generate_workload", "engine_mix", "{}",
                   [no_mix] { model::generate_workload(no_mix); }});
  // 40 tasks at 1e27 ns each put arrivals past 2^53 ns, where adjacent
  // doubles are more than 1 ns apart.
  for (const double mean : {0.0, -5.0, nan, inf, -inf, 1e27, 1e307}) {
    model::WorkloadConfig bad = workload;
    bad.mean_interarrival = mean;
    cases.push_back({"generate_workload", "mean_interarrival",
                     std::to_string(mean),
                     [bad] { model::generate_workload(bad); }});
  }
  for (const double gap : {-5.0, 1.5, nan, inf, -inf}) {
    const model::ClassifyConfig bad{.rel_gap = gap};
    cases.push_back({"classify", "rel_gap", std::to_string(gap), [&, bad] {
                       model::classify(write_model, topo, bad);
                     }});
  }

  for (const Case& c : cases) {
    const std::string label = c.entry + ": " + c.field + " = " + c.value;
    try {
      c.call();
      ADD_FAILURE() << label << " was accepted";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kUsage) << label << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << label << ": " << e.what();
    }
  }
  EXPECT_TRUE(sink.events.empty());
  EXPECT_EQ(allocations(), allocated_before);
  // The edges of each valid range pass.
  EXPECT_NO_THROW(model::classify(write_model, topo, {.rel_gap = 0.0}));
  EXPECT_NO_THROW(model::classify(write_model, topo, {.rel_gap = 1.0}));
  model::WorkloadConfig one = workload;
  one.num_tasks = 1;
  EXPECT_EQ(model::generate_workload(one).size(), 1u);
  one.mean_interarrival = 0x1p53;
  EXPECT_EQ(model::generate_workload(one).size(), 1u);
}

// --- online scheduling under faults ---------------------------------------

class OnlineDegradedTest : public ::testing::Test {
 protected:
  OnlineDegradedTest()
      : tb_(io::Testbed::dl585()),
        write_model_(model::build_iomodel(tb_.host(), 7,
                                          Direction::kDeviceWrite)),
        read_model_(model::build_iomodel(tb_.host(), 7,
                                         Direction::kDeviceRead)),
        write_classes_(
            model::classify(write_model_, tb_.machine().topology())),
        read_classes_(
            model::classify(read_model_, tb_.machine().topology())) {}

  io::Testbed tb_;
  model::IoModelResult write_model_;
  model::IoModelResult read_model_;
  model::Classification write_classes_;
  model::Classification read_classes_;
};

TEST_F(OnlineDegradedTest, SpreadAvoidsThrottledPoolNodes) {
  model::WorkloadConfig wc;
  wc.num_tasks = 16;
  wc.engine_mix = {io::kRdmaWrite, io::kRdmaRead};
  const auto tasks = model::generate_workload(wc);

  model::OnlineConfig config;
  config.policy = model::OnlinePolicy::kModelSpread;

  // Fault-free: round-robin over the default pool puts the first task on
  // one pool node and other tasks on the others.
  model::OnlineScheduler plain(tb_.host(), tb_.nic(), write_classes_,
                               read_classes_, config);
  const auto baseline = plain.run(tasks);
  const topo::NodeId victim = baseline.tasks[0].first_node;
  int elsewhere = 0;
  for (const auto& t : baseline.tasks) elsewhere += t.first_node != victim;
  EXPECT_GT(elsewhere, 0);

  // That node's memory controller is throttled for the whole run: the
  // model-driven policy must steer around it.
  faults::FaultPlan plan;
  plan.add(mc_throttle(victim, 0.0, 1.0e15, 0.9));
  faults::FaultInjector injector(tb_.machine(), std::move(plan));
  model::OnlineScheduler degraded(tb_.host(), tb_.nic(), write_classes_,
                                  read_classes_, config);
  degraded.set_fault_injector(&injector);
  const auto report = degraded.run(tasks);
  for (const auto& t : report.tasks) {
    EXPECT_NE(t.first_node, victim);
    EXPECT_GT(t.completion, t.arrival);
  }
}

TEST_F(OnlineDegradedTest, AdaptiveMigratesOffANodeDegradedMidRun) {
  // One long task: adaptive placement is stable while the machine is
  // healthy, so any migration is attributable to the injected fault.
  std::vector<model::IoTask> tasks(1);
  tasks[0].engine = io::kRdmaRead;
  tasks[0].bytes = 64 * sim::kGiB;
  tasks[0].arrival = 0.0;

  model::OnlineConfig config;
  config.policy = model::OnlinePolicy::kModelAdaptive;

  model::OnlineScheduler plain(tb_.host(), tb_.nic(), write_classes_,
                               read_classes_, config);
  const auto baseline = plain.run(tasks);
  EXPECT_EQ(baseline.total_migrations, 0);
  const topo::NodeId home = baseline.tasks[0].first_node;

  // Degrade the chosen node shortly after launch; the task must move away
  // at its next chunk boundary.
  faults::FaultPlan plan;
  plan.add(mc_throttle(home, 0.05e9, 1.0e15, 0.9));
  faults::FaultInjector injector(tb_.machine(), std::move(plan));
  model::OnlineScheduler degraded(tb_.host(), tb_.nic(), write_classes_,
                                  read_classes_, config);
  degraded.set_fault_injector(&injector);
  const auto report = degraded.run(tasks);
  EXPECT_EQ(report.tasks[0].first_node, home);  // placed before the fault
  EXPECT_GE(report.total_migrations, 1);
  EXPECT_GT(report.tasks[0].completion, 0.0);
}

}  // namespace
}  // namespace numaio
