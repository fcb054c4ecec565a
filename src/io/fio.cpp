#include "io/fio.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>

#include "io/ssd.h"
#include "simcore/fluid_sim.h"
#include "simcore/rng.h"
#include "simcore/status.h"

namespace numaio::io {

namespace {

/// Seed of every job's stream jitter and retry backoff draws.
constexpr std::uint64_t kJobSeed = 20130407;

struct StreamSetup {
  std::size_t job_index = 0;
  const PcieDevice* device = nullptr;
  nm::Buffer buffer;
  StreamShape shape;
  sim::FluidSimulation::TransferId transfer = 0;
  // Degraded-mode attempt state. `transfer` always names the most recent
  // attempt; earlier attempts' bytes are folded into bytes_done when they
  // abort.
  int attempts = 0;              ///< Launches so far (retries = attempts-1).
  sim::Bytes bytes_done = 0;     ///< Bytes banked by aborted attempts.
  bool finished = false;         ///< Completed exactly at an abort boundary.
  bool gave_up = false;          ///< Retry budget exhausted.
  sim::Ns final_end = 0.0;       ///< End time when finished/gave_up is set.
  int fault_device = -1;         ///< Injector device index, -1 = untracked.
  sim::Rng backoff_rng{0};
  obs::SpanId span = 0;          ///< `fio.stream` trace span, 0 = untraced.
};

/// One stream's options under the job's iodepth and I/O submission mode.
/// The mode only matters on queue-depth devices, i.e. the SSD engines:
/// buffered mode adds a kernel copy in front of the DMA, sync mode
/// collapses the queue to one request in flight (§IV-B3: buffered and
/// synchronous modes "perform much worse").
StreamOptions stream_options(const FioJob& job, const EngineSpec& spec,
                             sim::Rng& job_rng) {
  StreamOptions options;
  options.iodepth = job.iodepth;
  const bool queue_depth_device = spec.per_iodepth_gbps > 0.0;
  const bool buffered = job.io_mode == IoMode::kAsyncBuffered ||
                        job.io_mode == IoMode::kSyncBuffered;
  const bool synchronous = job.io_mode == IoMode::kSyncDirect ||
                           job.io_mode == IoMode::kSyncBuffered;
  if (queue_depth_device && buffered) {
    options.rho_factor *= 0.55;            // page-cache copy in the path
    options.stream_cap_factor *= 0.7;      // copy latency per request
    options.extra_cpu_app_per_gbps = 0.5;  // the copy burns CPU
  }
  options.synchronous = queue_depth_device && synchronous;
  if (spec.jitter_stddev > 0.0 && job.num_streams > spec.jitter_threshold) {
    // Contention above ~4 streams wobbles both the engine-level
    // aggregate and the per-stream rates, which is why at 8/16 TCP
    // streams the per-binding ordering shuffles (§IV-B1, "sometimes
    // the performance of node 5 appears to be the best").
    options.rho_factor *= std::clamp(
        1.0 + job_rng.normal(-0.005, 0.4 * spec.jitter_stddev), 0.90, 1.10);
    options.stream_cap_factor *= std::clamp(
        1.0 + job_rng.normal(-0.01, spec.jitter_stddev), 0.70, 1.30);
  }
  return options;
}

/// The streams of a set of jobs as they start at t = 0.
struct JobStreams {
  std::vector<StreamSetup> setups;  ///< Job-major, streams in order.
  /// Engines set to the mixed-service capacity for the run.
  std::vector<sim::ResourceId> penalized;
};

/// Frees the streams' buffers and lifts the mixed-service penalty.
void release(nm::Host& host, JobStreams& built) {
  for (StreamSetup& s : built.setups) host.free(s.buffer);
  for (const sim::ResourceId res : built.penalized) {
    host.machine().solver().set_capacity(res, 1.0);
  }
}

/// Checks every job, then builds its streams: worker buffers under the
/// job's memory policy, per-stream options with the seeded contention
/// jitter, and the mixed-service penalty on shared engines. A job that
/// fails a check leaves host and solver untouched, and an allocation
/// failing part-way frees the buffers already taken. release() undoes
/// the buffers and the penalty.
JobStreams build_streams(nm::Host& host, const std::vector<TimedJob>& jobs) {
  fabric::Machine& machine = host.machine();
  auto& solver = machine.solver();

  // Nodes index per-node tables that only assert their bound, so a node
  // outside the host is rejected before any buffer or flow exists.
  const int nodes = machine.num_nodes();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const FioJob& job = jobs[j].job;
    const auto check = [&](const char* field, int node) {
      if (node >= 0 && node < nodes) return;
      throw StatusError(StatusCode::kUsage,
                        "fio job " + std::to_string(j) + " (" + job.engine +
                            "): " + field + " " + std::to_string(node) +
                            " is outside the host's nodes 0-" +
                            std::to_string(nodes - 1));
    };
    check("cpu_node", job.cpu_node);
    if (job.mem_policy.cpu_node) {
      check("memory policy cpu node", *job.mem_policy.cpu_node);
    }
    for (const NodeId node : job.mem_policy.mem_nodes) {
      check("memory policy node", node);
    }
    if (job.devices.empty()) {
      throw std::invalid_argument("FioJob needs at least one device");
    }
    if (job.num_streams < 1) {
      throw std::invalid_argument("FioJob needs at least one stream");
    }
    if (is_ssd_engine(job.engine) &&
        job.num_streams < static_cast<int>(job.devices.size())) {
      // The paper's SSD tests use at least one process per card (§IV-B3).
      throw std::invalid_argument(
          "SSD jobs need at least one stream per card");
    }
    // engine() throws std::out_of_range naming a device without it.
    for (const PcieDevice* device : job.devices) device->engine(job.engine);
  }

  JobStreams built;
  try {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const FioJob& job = jobs[j].job;
      sim::Rng job_rng =
          sim::Rng(kJobSeed).fork(static_cast<std::uint64_t>(job.cpu_node));
      for (int s = 0; s < job.num_streams; ++s) {
        // Listed before its buffer exists, so release() frees whatever
        // a failed allocation part-way through has taken.
        StreamSetup& setup = built.setups.emplace_back();
        setup.job_index = j;
        setup.device =
            job.devices[static_cast<std::size_t>(s) % job.devices.size()];
        // Worker buffers follow the job's memory policy (default: local to
        // the binding node, the kernel's local-preferred behaviour).
        setup.buffer = host.alloc_with_policy(
            job.block_size * static_cast<sim::Bytes>(job.iodepth),
            job.mem_policy, job.cpu_node);
        StreamSpec stream;
        stream.device = setup.device;
        stream.engine = job.engine;
        stream.cpu_node = job.cpu_node;
        stream.placements = setup.buffer.placement;
        stream.options =
            stream_options(job, setup.device->engine(job.engine), job_rng);
        setup.shape = shape_stream(machine, stream);
      }
    }
  } catch (...) {
    release(host, built);
    throw;
  }

  // Heterogeneous service times on one engine cost a little extra
  // occupancy (queue-switching between unequal DMA windows); this is the
  // ~3% by which real mixed-node aggregates undershoot Eq. 1's arithmetic
  // prediction.
  std::map<sim::ResourceId, std::pair<double, double>> tau_range;
  for (const StreamSetup& s : built.setups) {
    const sim::ResourceId engine_res =
        s.device->engine_resource(jobs[s.job_index].job.engine);
    auto [it, inserted] =
        tau_range.try_emplace(engine_res, s.shape.tau, s.shape.tau);
    if (!inserted) {
      it->second.first = std::min(it->second.first, s.shape.tau);
      it->second.second = std::max(it->second.second, s.shape.tau);
    }
  }
  for (const auto& [res, range] : tau_range) {
    if (range.second > range.first * 1.0001) {
      solver.set_capacity(res, 0.97);
      built.penalized.push_back(res);
    }
  }
  return built;
}

}  // namespace

std::vector<const PcieDevice*> DeviceSet::for_engine(
    const std::string& engine) const {
  if (is_ssd_engine(engine)) {
    if (ssds.empty()) {
      throw std::invalid_argument("engine '" + engine +
                                  "' needs SSDs but the set has none");
    }
    return ssds;
  }
  if (nic == nullptr) {
    throw std::invalid_argument("engine '" + engine +
                                "' needs a NIC but the set has none");
  }
  return {nic};
}

StreamShape shape_stream(fabric::Machine& machine, const StreamSpec& spec) {
  assert(spec.device != nullptr);
  const PcieDevice& device = *spec.device;
  const StreamOptions& options = spec.options;
  const NodeId cpu_node = spec.cpu_node;
  // Without placements the buffer lives whole on mem_node.
  const std::pair<NodeId, sim::Bytes> whole{spec.mem_node, 1};
  const std::span<const std::pair<NodeId, sim::Bytes>> placements =
      spec.placements.empty()
          ? std::span<const std::pair<NodeId, sim::Bytes>>(&whole, 1)
          : std::span<const std::pair<NodeId, sim::Bytes>>(spec.placements);
  const EngineSpec& eng = device.engine(spec.engine);
  const NodeId attach = device.attach_node();
  const double rho = eng.residual_for(cpu_node) * options.rho_factor;
  assert(rho > 0.0);

  sim::Bytes total = 0;
  for (const auto& [node, bytes] : placements) total += bytes;
  assert(total > 0);

  // Traffic splits across the placement's nodes in proportion to page
  // share; the engine occupancy per bit and the per-stream window limit
  // compose harmonically over the per-node paths (time-per-bit adds).
  StreamShape shape;
  shape.tau = 0.0;
  double inv_window_cap = 0.0;  // 1 / per-stream-window rate
  for (const auto& [node, bytes] : placements) {
    const double share =
        static_cast<double>(bytes) / static_cast<double>(total);
    const sim::Ns lat = eng.to_device ? machine.path(node, attach).dma_lat
                                      : machine.path(attach, node).dma_lat;
    const double window_gbps = eng.window_bits / lat;
    shape.tau += share / (rho * std::min(eng.device_cap, window_gbps));
    if (eng.stream_window_bits > 0.0) {
      inv_window_cap +=
          share * (lat + eng.stream_extra_rtt_ns) / eng.stream_window_bits;
    }
    auto leg = machine.dma_usages(node, attach, eng.to_device);
    for (sim::Usage& u : leg) u.weight *= share;
    shape.usages.insert(shape.usages.end(), leg.begin(), leg.end());
  }

  // Per-stream limits.
  sim::Gbps cap = sim::kUnlimited;
  if (inv_window_cap > 0.0) cap = std::min(cap, 1.0 / inv_window_cap);
  if (eng.per_stream_cap > 0.0) cap = std::min(cap, eng.per_stream_cap);
  if (eng.per_iodepth_gbps > 0.0) {
    const int depth = options.synchronous ? 1 : options.iodepth;
    cap = std::min(cap, eng.per_iodepth_gbps * depth);
  }
  if (std::isfinite(cap)) cap *= options.stream_cap_factor;
  shape.rate_cap = cap;

  shape.usages.push_back({device.pcie_resource(eng.to_device), 1.0});
  shape.usages.push_back({device.engine_resource(spec.engine), shape.tau});
  const double cpu_app =
      eng.cpu_app_per_gbps + options.extra_cpu_app_per_gbps;
  if (cpu_app > 0.0) {
    shape.usages.push_back({machine.cpu(cpu_node), cpu_app});
  }
  if (eng.cpu_irq_per_gbps > 0.0) {
    shape.usages.push_back(
        {machine.cpu(device.irq_node()), eng.cpu_irq_per_gbps});
  }
  return shape;
}

sim::Gbps combined_aggregate(const std::vector<FioResult>& results) {
  double total_bits = 0.0;
  sim::Ns makespan = 0.0;
  for (const FioResult& r : results) {
    total_bits += r.aggregate * r.duration;  // Gbps * ns = bits
    makespan = std::max(makespan, r.duration);
  }
  return makespan > 0.0 ? total_bits / makespan : 0.0;
}

void FioRunner::set_observer(obs::Context* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  m_streams_ = obs_->metrics.counter("fio.streams");
  m_attempts_ = obs_->metrics.counter("fio.attempts");
  m_retries_ = obs_->metrics.counter("fio.retries");
  m_aborted_ = obs_->metrics.counter("fio.aborted_streams");
  m_degraded_jobs_ = obs_->metrics.counter("fio.degraded_jobs");
}

FioResult FioRunner::run(const FioJob& job) {
  return run_concurrent({job}).front();
}

std::vector<FioResult> FioRunner::run_concurrent(
    const std::vector<FioJob>& jobs) {
  std::vector<TimedJob> timed;
  timed.reserve(jobs.size());
  for (const FioJob& job : jobs) timed.push_back(TimedJob{job, 0.0});
  return run_timed(timed);
}

std::vector<FioResult> FioRunner::run_timed(
    const std::vector<TimedJob>& jobs) {
  auto& solver = host_.machine().solver();
  obs::TraceRecorder* trace =
      obs_ != nullptr && obs_->trace.enabled() ? &obs_->trace : nullptr;

  JobStreams built = build_streams(host_, jobs);
  std::vector<StreamSetup>& setups = built.setups;
  std::vector<obs::SpanId> job_spans(jobs.size(), 0);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    StreamSetup& setup = setups[i];
    const std::size_t j = setup.job_index;
    const FioJob& job = jobs[j].job;
    setup.backoff_rng = sim::Rng(kJobSeed)
                            .fork(0x72657472u)
                            .fork(static_cast<std::uint64_t>(i));
    if (faults_ != nullptr) {
      setup.fault_device = faults_->device_index(setup.device->name());
    }
    if (obs_ != nullptr) obs_->metrics.add(m_streams_);
    if (trace == nullptr) continue;
    const char job_dir =
        job.devices.front()->engine(job.engine).to_device ? 'w' : 'r';
    if (i == 0 || setups[i - 1].job_index != j) {
      obs::EventFields fields;
      fields.node_a = job.cpu_node;
      fields.node_b = job.devices.front()->attach_node();
      fields.dir = job_dir;
      fields.bytes = static_cast<long long>(job.bytes_per_stream) *
                     job.num_streams;
      fields.t_sim = jobs[j].start;
      fields.detail = job.engine;
      job_spans[j] = trace->begin_span("fio.job", 0, fields);
    }
    obs::EventFields fields;
    fields.node_a = job.cpu_node;
    fields.node_b = setup.buffer.home();
    fields.dir = job_dir;
    fields.bytes = static_cast<long long>(job.bytes_per_stream);
    fields.t_sim = jobs[j].start;
    fields.detail = setup.device->name();
    setup.span = trace->begin_span("fio.stream", job_spans[j], fields);
  }

  sim::FluidSimulation fluid(solver);

  // Per-stream attempt machinery. launch_stream starts (or restarts) a
  // stream's remaining bytes and, when the job has a timeout, schedules a
  // deadline control that aborts the attempt and hands it to
  // handle_failure; handle_failure banks the partial bytes and either
  // relaunches after an exponentially backed-off, jittered delay or gives
  // up once the retry budget is spent. Both live as std::functions so they
  // can recurse into each other from inside control events.
  std::function<void(StreamSetup&, sim::Ns)> launch_stream;
  std::function<void(StreamSetup&, sim::Ns, obs::EventId)> handle_failure;

  launch_stream = [&](StreamSetup& s, sim::Ns at) {
    const FioJob& job = jobs[s.job_index].job;
    const sim::Bytes remaining = job.bytes_per_stream > s.bytes_done
                                     ? job.bytes_per_stream - s.bytes_done
                                     : 0;
    if (remaining == 0) {
      s.finished = true;
      s.final_end = at;
      return;
    }
    s.transfer =
        fluid.start_transfer_at(at, s.shape.usages, remaining, s.shape.rate_cap);
    ++s.attempts;
    if (obs_ != nullptr) obs_->metrics.add(m_attempts_);
    if (trace != nullptr) {
      obs::EventFields fields;
      fields.bytes = static_cast<long long>(remaining);
      fields.t_sim = at;
      const std::string detail = "attempt " + std::to_string(s.attempts);
      fields.detail = detail;
      trace->event("fio.attempt", s.span, 0, {}, fields);
    }
    if (job.retry.timeout > 0.0) {
      const auto tid = s.transfer;
      const sim::Ns deadline = at + job.retry.timeout;
      fluid.schedule_control(deadline, [&, tid, deadline] {
        if (s.transfer != tid || s.finished || s.gave_up) return;
        if (fluid.stats(tid).done) return;  // beat its deadline
        fluid.abort_transfer(tid);
        // A deadline miss under an active capacity fault is attributed to
        // the most recent fault transition; a miss on a healthy machine
        // (plain congestion) carries no cause.
        const obs::EventId cause =
            faults_ != nullptr && faults_->any_capacity_fault_active(deadline)
                ? faults_->last_transition_event()
                : 0;
        handle_failure(s, deadline, cause);
      });
    }
  };

  handle_failure = [&](StreamSetup& s, sim::Ns now, obs::EventId cause) {
    const FioJob& job = jobs[s.job_index].job;
    s.bytes_done += fluid.stats(s.transfer).bytes_moved;
    if (s.bytes_done >= job.bytes_per_stream) {
      s.finished = true;
      s.final_end = now;
      return;
    }
    if (s.attempts > job.retry.max_retries) {
      s.gave_up = true;
      s.final_end = now;
      if (obs_ != nullptr) obs_->metrics.add(m_aborted_);
      if (trace != nullptr) {
        obs::EventFields fields;
        fields.bytes = static_cast<long long>(s.bytes_done);
        fields.t_sim = now;
        fields.detail = "retry budget exhausted";
        trace->event("fio.abort", s.span, cause, "abort", fields);
      }
      return;
    }
    const sim::Ns delay =
        sim::backoff_delay(job.retry, s.attempts, s.backoff_rng);
    if (obs_ != nullptr) obs_->metrics.add(m_retries_);
    if (trace != nullptr) {
      obs::EventFields fields;
      fields.bytes = static_cast<long long>(s.bytes_done);
      fields.t_sim = now;
      const std::string detail =
          "backoff " + std::to_string(static_cast<long long>(delay)) + " ns";
      fields.detail = detail;
      trace->event("fio.retry", s.span, cause, "retry", fields);
    }
    launch_stream(s, now + delay);
  };

  if (faults_ != nullptr) {
    faults_->arm(fluid);
    // A stall window opening aborts every in-flight transfer on the
    // stalled device (a reset drops outstanding DMA); each aborted stream
    // then follows its job's retry policy. Attempts that are merely
    // pending (waiting out a backoff) are left alone — they will start
    // into the stall and crawl until their own deadline or the stall end.
    // A pending transfer's stats().start is its scheduled start.
    faults_->set_transition_handler([&](const faults::FaultEvent& e, bool on,
                                        sim::Ns at) {
      if (!on || faults::kind_info(e.kind).target !=
                     faults::FaultTarget::kDevice) {
        return;
      }
      // The injector emits its fault.transition trace event before
      // invoking this handler, so the id below names the stall that is
      // killing these transfers.
      const obs::EventId cause = faults_->last_transition_event();
      for (StreamSetup& s : setups) {
        if (s.fault_device != e.device || s.attempts == 0) continue;
        if (s.finished || s.gave_up) continue;
        const auto& st = fluid.stats(s.transfer);
        if (st.done || st.start > at) continue;
        fluid.abort_transfer(s.transfer);
        handle_failure(s, at, cause);
      }
    });
  }

  for (StreamSetup& s : setups) {
    launch_stream(s, jobs[s.job_index].start);
  }
  fluid.run();

  if (faults_ != nullptr) {
    faults_->set_transition_handler(nullptr);
    faults_->restore();  // leave the machine healthy for the next caller
  }

  // True when a capacity-affecting fault is active anywhere in [a, b]:
  // at either endpoint or at any fault transition between them.
  const auto fault_overlaps = [&](sim::Ns a, sim::Ns b) {
    if (faults_ == nullptr) return false;
    if (faults_->any_capacity_fault_active(a) ||
        faults_->any_capacity_fault_active(b)) {
      return true;
    }
    for (sim::Ns t = faults_->next_transition_after(a); t < b;
         t = faults_->next_transition_after(t)) {
      if (faults_->any_capacity_fault_active(t)) return true;
    }
    return false;
  };

  // Collect per-job aggregates.
  std::vector<FioResult> results(jobs.size());
  std::vector<sim::Ns> first_start(jobs.size(),
                                   std::numeric_limits<double>::infinity());
  std::vector<sim::Ns> last_end(jobs.size(), 0.0);
  std::vector<sim::Bytes> total_bytes(jobs.size(), 0);
  for (StreamSetup& s : setups) {
    const sim::Ns start = jobs[s.job_index].start;
    sim::Ns end = 0.0;
    if (s.gave_up || s.finished) {
      end = s.final_end;
    } else {
      const auto& st = fluid.stats(s.transfer);
      s.bytes_done += st.bytes_moved;
      end = st.end;
    }

    if (trace != nullptr) {
      obs::EventFields fields;
      fields.bytes = static_cast<long long>(s.bytes_done);
      fields.t_sim = end;
      trace->end_span(s.span, s.gave_up ? "aborted" : "ok", fields);
    }

    FioStreamStats stream;
    stream.mem_node = s.buffer.home();
    stream.device = s.device;
    stream.bytes_moved = s.bytes_done;
    const sim::Ns lifetime = end - start;
    stream.avg_rate =
        lifetime > 0.0 ? sim::gbps(s.bytes_done, lifetime) : 0.0;
    stream.rate_cv = fluid.rate_stability(s.transfer).cv;

    stream.outcome.retries = s.attempts > 0 ? s.attempts - 1 : 0;
    if (s.gave_up) {
      stream.outcome.ok = false;
      stream.outcome.aborted = true;
      stream.outcome.confidence = 0.0;
    } else {
      // Discount confidence for retries, rate instability and fault
      // overlap; a clean, stable, fault-free stream stays at 1.0.
      double conf = 1.0 - 0.15 * stream.outcome.retries;
      conf -= std::min(0.3, stream.rate_cv);
      if (fault_overlaps(start, end)) conf -= 0.2;
      stream.outcome.confidence = std::clamp(conf, 0.05, 1.0);
    }

    first_start[s.job_index] = std::min(first_start[s.job_index], start);
    last_end[s.job_index] = std::max(last_end[s.job_index], end);
    total_bytes[s.job_index] += s.bytes_done;
    FioResult& result = results[s.job_index];
    result.total_retries += stream.outcome.retries;
    if (stream.outcome.aborted) ++result.aborted_streams;
    if (!stream.outcome.ok || stream.outcome.retries > 0 ||
        stream.outcome.confidence < 0.5) {
      result.degraded = true;
    }
    result.streams.push_back(std::move(stream));
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    results[j].duration = last_end[j] - first_start[j];
    results[j].aggregate =
        results[j].duration > 0.0
            ? sim::gbps(total_bytes[j], results[j].duration)
            : 0.0;
    if (obs_ != nullptr && results[j].degraded) {
      obs_->metrics.add(m_degraded_jobs_);
    }
    if (trace != nullptr) {
      obs::EventFields fields;
      fields.bytes = static_cast<long long>(total_bytes[j]);
      fields.t_sim = last_end[j];
      trace->end_span(job_spans[j], results[j].degraded ? "degraded" : "ok",
                      fields);
    }
  }

  release(host_, built);
  return results;
}

}  // namespace numaio::io
