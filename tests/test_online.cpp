#include "model/online.h"

#include <gtest/gtest.h>

#include "io/testbed.h"

namespace numaio::model {
namespace {

class OnlineTest : public ::testing::Test {
 protected:
  OnlineTest()
      : tb_(io::Testbed::dl585()),
        write_model_(build_iomodel(tb_.host(), 7, Direction::kDeviceWrite)),
        read_model_(build_iomodel(tb_.host(), 7, Direction::kDeviceRead)),
        write_classes_(classify(write_model_, tb_.machine().topology())),
        read_classes_(classify(read_model_, tb_.machine().topology())) {}

  std::vector<IoTask> workload(int n = 24) {
    WorkloadConfig c;
    c.num_tasks = n;
    c.engine_mix = {io::kRdmaWrite, io::kRdmaRead, io::kTcpSend,
                    io::kTcpRecv};
    return generate_workload(c);
  }

  OnlineReport run_policy(OnlinePolicy policy,
                          std::span<const IoTask> tasks) {
    OnlineConfig config;
    config.policy = policy;
    OnlineScheduler scheduler(tb_.host(), tb_.nic(), write_classes_,
                              read_classes_, config);
    return scheduler.run(tasks);
  }

  io::Testbed tb_;
  IoModelResult write_model_;
  IoModelResult read_model_;
  Classification write_classes_;
  Classification read_classes_;
};

TEST_F(OnlineTest, PolicyNames) {
  EXPECT_EQ(to_string(OnlinePolicy::kAllLocal), "all-local");
  EXPECT_EQ(to_string(OnlinePolicy::kModelAdaptive), "model-adaptive");
}

TEST_F(OnlineTest, AllTasksComplete) {
  const auto tasks = workload();
  const auto report = run_policy(OnlinePolicy::kModelAdaptive, tasks);
  ASSERT_EQ(report.tasks.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_GT(report.tasks[i].completion, tasks[i].arrival) << i;
  }
  EXPECT_GT(report.aggregate, 0.0);
  EXPECT_GT(report.makespan, 0.0);
}

TEST_F(OnlineTest, AllLocalPinsToDeviceNode) {
  const auto tasks = workload(8);
  const auto report = run_policy(OnlinePolicy::kAllLocal, tasks);
  for (const auto& t : report.tasks) EXPECT_EQ(t.first_node, 7);
  EXPECT_EQ(report.total_migrations, 0);
}

TEST_F(OnlineTest, SpreadStaysInsideThePools) {
  const auto tasks = workload();
  OnlineConfig config;
  config.policy = OnlinePolicy::kModelSpread;
  OnlineScheduler scheduler(tb_.host(), tb_.nic(), write_classes_,
                            read_classes_, config);
  const auto report = scheduler.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const bool write =
        tb_.nic().engine(tasks[i].engine).to_device;
    const auto& classes = write ? write_classes_ : read_classes_;
    // With the default 25% tolerance the weakest class stays excluded.
    const int cls = classes.class_of[static_cast<std::size_t>(
        report.tasks[i].first_node)];
    EXPECT_LT(cls, classes.num_classes() - 1) << i;
  }
}

TEST_F(OnlineTest, ModelPoliciesBeatAllLocalOnTurnaround) {
  const auto tasks = workload();
  const auto local = run_policy(OnlinePolicy::kAllLocal, tasks);
  const auto spread = run_policy(OnlinePolicy::kModelSpread, tasks);
  const auto adaptive = run_policy(OnlinePolicy::kModelAdaptive, tasks);
  EXPECT_LT(spread.mean_turnaround, local.mean_turnaround);
  EXPECT_LT(adaptive.mean_turnaround, local.mean_turnaround);
}

TEST_F(OnlineTest, AdaptivePolicyMigrates) {
  const auto tasks = workload();
  const auto adaptive = run_policy(OnlinePolicy::kModelAdaptive, tasks);
  EXPECT_GT(adaptive.total_migrations, 0);
  // Migration counts land in the per-task outcomes.
  int sum = 0;
  for (const auto& t : adaptive.tasks) sum += t.migrations;
  EXPECT_EQ(sum, adaptive.total_migrations);
}

TEST_F(OnlineTest, NonAdaptivePoliciesNeverMigrate) {
  const auto tasks = workload();
  EXPECT_EQ(run_policy(OnlinePolicy::kRoundRobin, tasks).total_migrations,
            0);
  EXPECT_EQ(run_policy(OnlinePolicy::kModelSpread, tasks).total_migrations,
            0);
}

TEST_F(OnlineTest, DeterministicRuns) {
  const auto tasks = workload();
  const auto a = run_policy(OnlinePolicy::kModelAdaptive, tasks);
  const auto b = run_policy(OnlinePolicy::kModelAdaptive, tasks);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
}

TEST_F(OnlineTest, MemoryFullyReleased) {
  const auto before7 = tb_.host().node_free_bytes(7);
  const auto before0 = tb_.host().node_free_bytes(0);
  run_policy(OnlinePolicy::kModelAdaptive, workload(12));
  EXPECT_EQ(tb_.host().node_free_bytes(7), before7);
  EXPECT_EQ(tb_.host().node_free_bytes(0), before0);
}

TEST_F(OnlineTest, HigherMigrationCostReducesNothingButDelays) {
  const auto tasks = workload();
  OnlineConfig cheap;
  cheap.policy = OnlinePolicy::kModelAdaptive;
  cheap.migration_cost = 0.0;
  OnlineConfig dear = cheap;
  dear.migration_cost = 5.0e8;  // 500 ms per move
  OnlineScheduler s1(tb_.host(), tb_.nic(), write_classes_, read_classes_,
                     cheap);
  OnlineScheduler s2(tb_.host(), tb_.nic(), write_classes_, read_classes_,
                     dear);
  const auto r1 = s1.run(tasks);
  const auto r2 = s2.run(tasks);
  EXPECT_GE(r2.mean_turnaround, r1.mean_turnaround);
}

TEST_F(OnlineTest, SingleChunkDisablesMigration) {
  // A task of fewer bytes than kOnlineChunksPerTask runs as one chunk, so
  // it never reaches a migration point.
  auto tasks = workload();
  for (IoTask& t : tasks) {
    t.bytes = static_cast<sim::Bytes>(kOnlineChunksPerTask - 1);
  }
  OnlineConfig config;
  config.policy = OnlinePolicy::kModelAdaptive;
  OnlineScheduler scheduler(tb_.host(), tb_.nic(), write_classes_,
                            read_classes_, config);
  EXPECT_EQ(scheduler.run(tasks).total_migrations, 0);
}

}  // namespace
}  // namespace numaio::model
