// Online placement and migration of I/O tasks — the paper's first
// future-work direction (§VI): "placing and migrating parallel I/O
// threads for data-intensive applications based on the result of our
// characterization methodology".
//
// Tasks arrive over time (model/workload.h) and must be bound to a NUMA
// node before they start. Policies:
//   kAllLocal       everything on the device node (the naive baseline the
//                   paper argues against),
//   kRoundRobin     cycle all nodes, model-blind,
//   kModelSpread    cycle only the near-best model classes (static),
//   kModelAdaptive  pick the least-loaded pooled node at every chunk
//                   boundary, migrating the task when a better node opens
//                   up (each move costs a pause).
// Tasks are split into chunks; a migration re-homes the task's buffers and
// continues on the new node after `migration_cost`.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "faults/injector.h"
#include "io/device.h"
#include "model/classify.h"
#include "model/workload.h"
#include "nm/host.h"

namespace numaio::model {

enum class OnlinePolicy {
  kAllLocal,
  kRoundRobin,
  kModelSpread,
  kModelAdaptive,
};

std::string to_string(OnlinePolicy policy);

/// Migration granularity: a task re-evaluates placement this many times
/// (a task of fewer bytes runs as one chunk).
inline constexpr int kOnlineChunksPerTask = 8;
/// Classes whose model average is within this fraction of the best
/// remote-aware class join the placement pool.
inline constexpr double kOnlineClassTolerance = 0.25;

struct OnlineConfig {
  OnlinePolicy policy = OnlinePolicy::kModelAdaptive;
  /// Pause per migration (buffer re-registration, page moves).
  sim::Ns migration_cost = 2.0e6;  // 2 ms
};

struct TaskOutcome {
  sim::Ns arrival = 0.0;
  sim::Ns completion = 0.0;
  NodeId first_node = 0;
  int migrations = 0;
  sim::Ns turnaround() const { return completion - arrival; }
};

struct OnlineReport {
  std::vector<TaskOutcome> tasks;
  sim::Ns makespan = 0.0;        ///< Last completion time.
  sim::Gbps aggregate = 0.0;     ///< Total bytes / makespan.
  sim::Ns mean_turnaround = 0.0;
  int total_migrations = 0;
};

/// Executes the workload against a single NIC-style device under the given
/// policy. `write_classes`/`read_classes` are the iomodel classifications
/// of the device's node for the two directions.
class OnlineScheduler {
 public:
  OnlineScheduler(nm::Host& host, const io::PcieDevice& device,
                  Classification write_classes, Classification read_classes,
                  OnlineConfig config = {});

  /// Attaches a fault injector: its plan is armed on the run's timeline,
  /// and the model-driven policies steer chunk placement away from nodes
  /// the injector reports degraded at decision time — so a fault landing
  /// mid-run migrates the affected tasks at their next chunk boundary.
  /// Pass nullptr to detach. The injector must outlive run().
  void set_fault_injector(faults::FaultInjector* injector) {
    faults_ = injector;
  }

  /// Attaches an observability context (nullptr detaches). run() then
  /// opens an `online.run` span, emits `online.place` per task,
  /// `sched.migrate` per migration (citing the causing fault transition
  /// when one is active) and `sched.avoid_degraded` when the candidate
  /// pool shrank, and maintains the sched.* counters. The context must
  /// outlive run().
  void set_observer(obs::Context* obs);

  OnlineReport run(std::span<const IoTask> tasks);

  // --- streaming placement (the fleet serving core drives these) ---------
  // run() owns a whole batch; a fleet host instead asks for one placement
  // at a time and reports starts/finishes itself, so the same class-aware,
  // degraded-node-avoiding policy serves an open-ended request stream.

  /// Picks a node for one request of the given engine ("write"/"read") at
  /// time `now`, honouring the configured policy and steering around nodes
  /// the attached injector reports degraded. Does not change load state.
  NodeId place_request(const std::string& engine, int request_index,
                       sim::Ns now);
  /// Load-tracking hooks: a request started on / left `node`.
  void note_start(NodeId node);
  void note_finish(NodeId node);

 private:
  NodeId choose_node(const std::string& engine, int task_index, sim::Ns now,
                     obs::SpanId span = 0);

  const std::vector<NodeId>& pool_for(const std::string& engine) const;
  /// The pool minus currently-degraded nodes; falls back to the full pool
  /// when every pooled node is degraded (bad placement beats none).
  std::vector<NodeId> usable_pool(const std::vector<NodeId>& pool,
                                  sim::Ns now) const;

  nm::Host& host_;
  const io::PcieDevice& device_;
  Classification write_classes_;
  Classification read_classes_;
  OnlineConfig config_;
  faults::FaultInjector* faults_ = nullptr;
  std::vector<NodeId> write_pool_;
  std::vector<NodeId> read_pool_;
  std::vector<int> active_;  ///< Running chunks per node.
  int rr_cursor_ = 0;

  obs::Context* obs_ = nullptr;
  obs::MetricsRegistry::Id m_tasks_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_chunks_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_migrations_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_pool_shrunk_ = obs::MetricsRegistry::kNone;
};

}  // namespace numaio::model
