#include "model/iomodel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "mem/copy.h"
#include "simcore/rng.h"
#include "simcore/stats.h"

namespace numaio::model {

Status IoModelConfig::validate() const {
  if (repetitions < 1) {
    return Status{StatusCode::kUsage, "repetitions must be >= 1"};
  }
  return Status{};
}

IoModelResult build_iomodel(nm::Host& host, NodeId target,
                            Direction direction, const IoModelConfig& config) {
  if (const Status status = config.validate(); !status.ok()) {
    throw StatusError(status);
  }
  fabric::Machine& machine = host.machine();
  auto& solver = machine.solver();

  const int n = host.num_configured_nodes();          // Algorithm 1, line 1
  const int m = host.num_configured_cores() / n;      // line 2
  assert(m > 0);

  IoModelResult result;
  result.target = target;
  result.direction = direction;
  result.bw.assign(static_cast<std::size_t>(n), 0.0);

  obs::Context* obs = config.obs;
  obs::TraceRecorder* trace =
      obs != nullptr && obs->trace.enabled() ? &obs->trace : nullptr;
  const auto m_reps = obs != nullptr ? obs->metrics.counter("iomodel.reps")
                                     : obs::MetricsRegistry::kNone;
  const char dir_char = direction == Direction::kDeviceWrite ? 'w' : 'r';
  // The synthetic timeline the trace records: each repetition advances it
  // by its own copy duration.
  sim::Ns clock = 0.0;
  obs::SpanId build_span = 0;
  if (trace != nullptr) {
    obs::EventFields fields;
    fields.node_a = target;
    fields.dir = dir_char;
    fields.t_sim = clock;
    fields.detail = direction == Direction::kDeviceWrite ? "write-model"
                                                         : "read-model";
    build_span = trace->begin_span("iomodel.build", config.obs_parent, fields);
  }

  sim::Rng master =
      sim::Rng(config.seed).fork(static_cast<std::uint64_t>(target),
                                 direction == Direction::kDeviceWrite ? 0u
                                                                      : 1u);

  for (NodeId i = 0; i < n; ++i) {                    // line 3
    const NodeId src = direction == Direction::kDeviceWrite ? i : target;
    const NodeId snk = direction == Direction::kDeviceWrite ? target : i;

    obs::SpanId probe_span = 0;
    if (trace != nullptr) {
      obs::EventFields fields;
      fields.node_a = src;
      fields.node_b = snk;
      fields.dir = dir_char;
      fields.t_sim = clock;
      probe_span = trace->begin_span("iomodel.probe", build_span, fields);
    }

    // Lines 4-10: one src/snk buffer pair per thread, placed per mode.
    std::vector<nm::Buffer> buffers;
    buffers.reserve(static_cast<std::size_t>(2 * m));
    for (int p = 0; p < m; ++p) {
      buffers.push_back(host.alloc_on_node(kIoModelBufferBytes, src));
      buffers.push_back(host.alloc_on_node(kIoModelBufferBytes, snk));
    }

    // Lines 11-14: m copy threads bound to the target node, all running
    // concurrently; each repetition records the aggregate bandwidth and
    // the robust average over repetitions is reported.
    mem::CopyTask task;
    task.threads_node = target;   // the simulated DMA engine
    task.src_node = src;
    task.dst_node = snk;
    task.threads = 1;
    task.engine = mem::CopyEngine::kStreaming;
    const sim::Gbps per_thread_cap = mem::copy_rate_cap(machine, task);
    const auto usages = mem::copy_usages(machine, task);
    std::vector<sim::FlowId> flows;
    flows.reserve(static_cast<std::size_t>(m));
    for (int p = 0; p < m; ++p) {
      flows.push_back(solver.add_flow(usages, per_thread_cap));
    }
    const auto& rates = solver.solve();
    sim::Gbps aggregate = 0.0;
    for (sim::FlowId f : flows) aggregate += rates[f];
    for (sim::FlowId f : flows) solver.remove_flow(f);

    // Bits one repetition moves; at the sample's rate this sets the rep's
    // duration on the synthetic timeline.
    const double rep_bits = static_cast<double>(m) * 8.0 *
                            static_cast<double>(kIoModelBufferBytes);

    sim::Rng rng = master.fork(static_cast<std::uint64_t>(i));
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(config.repetitions));
    for (int rep = 0; rep < config.repetitions; ++rep) {
      // Streaming copies are far steadier than PIO loops; the residual
      // one-sided jitter is well under 1%.
      const double slowdown = std::abs(rng.normal(0.004, 0.003));
      const double sample = aggregate * (1.0 - std::min(slowdown, 0.8));
      samples.push_back(sample);
      if (obs != nullptr) obs->metrics.add(m_reps);
      if (trace != nullptr) {
        obs::EventFields fields;
        fields.t_sim = clock;
        trace->event("iomodel.rep", probe_span, 0, "ok", fields);
      }
      if (sample > 0.0) clock += rep_bits / sample;
    }

    const sim::RobustSummary robust = sim::robust_summarize(samples);
    result.bw[static_cast<std::size_t>(i)] = robust.trimmed_mean;
    if (trace != nullptr) {
      obs::EventFields fields;
      fields.t_sim = clock;
      const std::string detail =
          "trimmed_mean over " + std::to_string(samples.size()) + " of " +
          std::to_string(config.repetitions) + " reps";
      fields.detail = detail;
      trace->event("iomodel.estimator", probe_span, 0,
                   robust.low_confidence ? "low-confidence" : "ok", fields);
      obs::EventFields end;
      end.t_sim = clock;
      trace->end_span(probe_span, "ok", end);
    }

    for (auto& b : buffers) host.free(b);
  }
  if (trace != nullptr) {
    obs::EventFields fields;
    fields.t_sim = clock;
    trace->end_span(build_span, "ok", fields);
  }
  return result;
}

}  // namespace numaio::model
