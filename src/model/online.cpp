#include "model/online.h"

#include <algorithm>
#include <cassert>

#include "io/fio.h"
#include "simcore/fluid_sim.h"

namespace numaio::model {

std::string to_string(OnlinePolicy policy) {
  switch (policy) {
    case OnlinePolicy::kAllLocal:
      return "all-local";
    case OnlinePolicy::kRoundRobin:
      return "round-robin";
    case OnlinePolicy::kModelSpread:
      return "model-spread";
    case OnlinePolicy::kModelAdaptive:
      return "model-adaptive";
  }
  return "?";
}

OnlineScheduler::OnlineScheduler(nm::Host& host,
                                 const io::PcieDevice& device,
                                 Classification write_classes,
                                 Classification read_classes,
                                 OnlineConfig config)
    : host_(host),
      device_(device),
      write_classes_(std::move(write_classes)),
      read_classes_(std::move(read_classes)),
      config_(config),
      active_(static_cast<std::size_t>(host.num_configured_nodes()), 0) {
  write_pool_ = near_best_pool(write_classes_, write_classes_.class_avg,
                               kOnlineClassTolerance);
  read_pool_ = near_best_pool(read_classes_, read_classes_.class_avg,
                              kOnlineClassTolerance);
}

void OnlineScheduler::set_observer(obs::Context* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  m_tasks_ = obs_->metrics.counter("sched.tasks");
  m_chunks_ = obs_->metrics.counter("sched.chunks");
  m_migrations_ = obs_->metrics.counter("sched.migrations");
  m_pool_shrunk_ = obs_->metrics.counter("sched.pool_shrunk");
}

const std::vector<NodeId>& OnlineScheduler::pool_for(
    const std::string& engine) const {
  return device_.engine(engine).to_device ? write_pool_ : read_pool_;
}

std::vector<NodeId> OnlineScheduler::usable_pool(
    const std::vector<NodeId>& pool, sim::Ns now) const {
  if (faults_ == nullptr) return pool;
  const std::vector<NodeId> degraded = faults_->degraded_nodes(now);
  if (degraded.empty()) return pool;
  std::vector<NodeId> ok;
  ok.reserve(pool.size());
  for (NodeId node : pool) {
    if (!std::binary_search(degraded.begin(), degraded.end(), node)) {
      ok.push_back(node);
    }
  }
  return ok.empty() ? pool : ok;
}

NodeId OnlineScheduler::choose_node(const std::string& engine,
                                    int task_index, sim::Ns now,
                                    obs::SpanId span) {
  // Notes when degraded nodes were dropped from the candidate pool — the
  // moment the policy visibly deviates from its fault-free choice.
  const auto note_shrunk = [&](const std::vector<NodeId>& full,
                               const std::vector<NodeId>& usable) {
    if (obs_ == nullptr || usable.size() >= full.size()) return;
    obs_->metrics.add(m_pool_shrunk_);
    if (obs_->trace.enabled()) {
      obs::EventFields fields;
      fields.t_sim = now;
      const std::string detail =
          std::to_string(full.size() - usable.size()) + " degraded of " +
          std::to_string(full.size()) + " pooled nodes";
      fields.detail = detail;
      obs_->trace.event("sched.avoid_degraded", span,
                        faults_ != nullptr ? faults_->last_transition_event()
                                           : 0,
                        "avoided", fields);
    }
  };
  switch (config_.policy) {
    case OnlinePolicy::kAllLocal:
      return device_.attach_node();  // the naive baseline never reacts
    case OnlinePolicy::kRoundRobin:
      return (rr_cursor_++) % host_.num_configured_nodes();
    case OnlinePolicy::kModelSpread: {
      const auto& full = pool_for(engine);
      const auto pool = usable_pool(full, now);
      note_shrunk(full, pool);
      return pool[static_cast<std::size_t>(task_index) % pool.size()];
    }
    case OnlinePolicy::kModelAdaptive: {
      // Least-loaded non-degraded node of the pool (ties: lowest id).
      const auto& full = pool_for(engine);
      const auto pool = usable_pool(full, now);
      note_shrunk(full, pool);
      NodeId best = pool.front();
      for (NodeId node : pool) {
        if (active_[static_cast<std::size_t>(node)] <
            active_[static_cast<std::size_t>(best)]) {
          best = node;
        }
      }
      return best;
    }
  }
  return device_.attach_node();
}

NodeId OnlineScheduler::place_request(const std::string& engine,
                                      int request_index, sim::Ns now) {
  return choose_node(engine, request_index, now, 0);
}

void OnlineScheduler::note_start(NodeId node) {
  ++active_[static_cast<std::size_t>(node)];
}

void OnlineScheduler::note_finish(NodeId node) {
  assert(active_[static_cast<std::size_t>(node)] > 0);
  --active_[static_cast<std::size_t>(node)];
}

OnlineReport OnlineScheduler::run(std::span<const IoTask> tasks) {
  fabric::Machine& machine = host_.machine();
  sim::FluidSimulation fluid(machine.solver());
  if (faults_ != nullptr) faults_->arm(fluid);

  obs::TraceRecorder* trace =
      obs_ != nullptr && obs_->trace.enabled() ? &obs_->trace : nullptr;
  obs::SpanId run_span = 0;
  if (trace != nullptr) {
    const std::string policy_text = to_string(config_.policy);
    obs::EventFields fields;
    fields.node_a = device_.attach_node();
    fields.detail = policy_text;  // EventFields::detail is a string_view.
    run_span = trace->begin_span("online.run", 0, fields);
  }

  struct TaskState {
    const IoTask* task = nullptr;
    int index = 0;
    int chunks_left = 0;
    sim::Bytes chunk_bytes = 0;
    sim::Bytes last_chunk_bytes = 0;  // absorbs rounding
    NodeId node = 0;
    nm::Buffer buffer;
    TaskOutcome outcome;
  };
  std::vector<TaskState> states(tasks.size());
  std::fill(active_.begin(), active_.end(), 0);
  rr_cursor_ = 0;

  sim::Bytes total_bytes = 0;

  // Chunk launcher; defined as a std::function so completion callbacks can
  // recurse into it.
  std::function<void(TaskState&, sim::Ns)> launch_chunk =
      [&](TaskState& state, sim::Ns at) {
        const sim::Bytes bytes = state.chunks_left == 1
                                     ? state.last_chunk_bytes
                                     : state.chunk_bytes;
        io::StreamSpec spec;
        spec.device = &device_;
        spec.engine = state.task->engine;
        spec.cpu_node = state.node;
        spec.mem_node = state.buffer.home();
        const auto shape = io::shape_stream(machine, spec);
        ++active_[static_cast<std::size_t>(state.node)];
        if (obs_ != nullptr) obs_->metrics.add(m_chunks_);
        fluid.start_transfer_at(
            at, shape.usages, bytes, shape.rate_cap,
            [&, bytes](sim::FluidSimulation::TransferId, sim::Ns now) {
              --active_[static_cast<std::size_t>(state.node)];
              --state.chunks_left;
              (void)bytes;
              if (state.chunks_left == 0) {
                state.outcome.completion = now;
                host_.free(state.buffer);
                return;
              }
              sim::Ns next_start = now;
              if (config_.policy == OnlinePolicy::kModelAdaptive) {
                const NodeId better =
                    choose_node(state.task->engine, state.index, now,
                                run_span);
                if (better != state.node) {
                  // Migrate: re-home the buffer, pay the pause.
                  host_.free(state.buffer);
                  state.buffer = host_.alloc_local(
                      128 * sim::kKiB * 16, better);
                  if (obs_ != nullptr) obs_->metrics.add(m_migrations_);
                  if (trace != nullptr) {
                    obs::EventFields fields;
                    fields.node_a = state.node;
                    fields.node_b = better;
                    fields.t_sim = now;
                    const std::string detail =
                        "task " + std::to_string(state.index);
                    fields.detail = detail;
                    const obs::EventId cause =
                        faults_ != nullptr &&
                                faults_->any_capacity_fault_active(now)
                            ? faults_->last_transition_event()
                            : 0;
                    trace->event("sched.migrate", run_span, cause,
                                 "migrated", fields);
                  }
                  state.node = better;
                  ++state.outcome.migrations;
                  next_start = now + config_.migration_cost;
                }
              }
              launch_chunk(state, next_start);
            });
      };

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    TaskState& state = states[i];
    state.task = &tasks[i];
    state.index = static_cast<int>(i);
    // Tiny tasks run as one chunk; others split for migration points.
    const int chunks =
        tasks[i].bytes < static_cast<sim::Bytes>(kOnlineChunksPerTask)
            ? 1
            : kOnlineChunksPerTask;
    state.chunks_left = chunks;
    state.chunk_bytes = tasks[i].bytes / static_cast<sim::Bytes>(chunks);
    state.last_chunk_bytes =
        tasks[i].bytes -
        state.chunk_bytes * static_cast<sim::Bytes>(chunks - 1);
    state.node = choose_node(tasks[i].engine, state.index, tasks[i].arrival,
                             run_span);
    state.outcome.arrival = tasks[i].arrival;
    state.outcome.first_node = state.node;
    state.buffer = host_.alloc_local(128 * sim::kKiB * 16, state.node);
    total_bytes += tasks[i].bytes;
    if (obs_ != nullptr) obs_->metrics.add(m_tasks_);
    if (trace != nullptr) {
      obs::EventFields fields;
      fields.node_a = state.node;
      fields.bytes = static_cast<long long>(tasks[i].bytes);
      fields.t_sim = tasks[i].arrival;
      fields.detail = tasks[i].engine;
      trace->event("online.place", run_span, 0, "placed", fields);
    }
    launch_chunk(state, tasks[i].arrival);
  }

  fluid.run();
  if (faults_ != nullptr) faults_->restore();

  OnlineReport report;
  sim::Ns turnaround_sum = 0.0;
  for (TaskState& state : states) {
    report.tasks.push_back(state.outcome);
    report.makespan = std::max(report.makespan, state.outcome.completion);
    report.total_migrations += state.outcome.migrations;
    turnaround_sum += state.outcome.turnaround();
  }
  if (!states.empty()) {
    report.mean_turnaround = turnaround_sum / static_cast<double>(states.size());
  }
  if (report.makespan > 0.0) {
    report.aggregate = sim::gbps(total_bytes, report.makespan);
  }
  if (trace != nullptr) {
    obs::EventFields fields;
    fields.bytes = static_cast<long long>(total_bytes);
    fields.t_sim = report.makespan;
    trace->end_span(run_span, "ok", fields);
  }
  return report;
}

}  // namespace numaio::model
