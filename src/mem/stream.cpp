#include "mem/stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "mem/copy.h"
#include "simcore/stats.h"

namespace numaio::mem {

namespace {

int arrays_needed(StreamKind kind) {
  return (kind == StreamKind::kAdd || kind == StreamKind::kTriad) ? 3 : 2;
}

// The four kernels "exhibit a similar performance on modern machines"
// (§III-B1); these small factors model the residual differences (Scale adds
// a multiply per element; Add/Triad stream three arrays, slightly improving
// bus efficiency per kernel iteration).
double kind_factor(StreamKind kind) {
  switch (kind) {
    case StreamKind::kCopy:
      return 1.0;
    case StreamKind::kScale:
      return 0.985;
    case StreamKind::kAdd:
      return 1.025;
    case StreamKind::kTriad:
      return 1.018;
  }
  return 1.0;
}

}  // namespace

StreamBenchmark::StreamBenchmark(nm::Host& host, const StreamConfig& config)
    : host_(host), config_(config) {
  assert(config_.array_elems > 0);
  assert(config_.repetitions > 0);
}

StreamResult StreamBenchmark::run(NodeId cpu_node, NodeId mem_node) {
  const sim::Bytes array_bytes = config_.array_elems * 8;
  const int narrays = arrays_needed(config_.kind);

  // numactl-style static binding: all arrays on mem_node.
  std::vector<nm::Buffer> buffers;
  buffers.reserve(static_cast<std::size_t>(narrays));
  for (int i = 0; i < narrays; ++i) {
    buffers.push_back(host_.alloc_on_node(array_bytes, mem_node));
  }

  // STREAM's array-sizing rule: each array at least 4x the largest cache.
  const double llc_bytes = host_.machine().profile().llc_mb * 1e6;
  const bool contaminated =
      static_cast<double>(array_bytes) < 4.0 * llc_bytes;

  CopyTask task;
  task.threads_node = cpu_node;
  task.src_node = mem_node;
  task.dst_node = mem_node;
  task.threads = config_.threads;
  task.engine = CopyEngine::kPio;
  double base =
      run_copy_alone(host_.machine(), task) * kind_factor(config_.kind);

  if (contaminated) {
    // Undersized arrays partially fit in cache; measured "bandwidth"
    // inflates toward cache throughput as the working set shrinks.
    const double fit =
        1.0 - static_cast<double>(array_bytes) / (4.0 * llc_bytes);
    base *= 1.0 + 0.9 * fit;
  }

  sim::Rng rng = sim::Rng(config_.seed)
                     .fork(static_cast<std::uint64_t>(cpu_node),
                           static_cast<std::uint64_t>(mem_node));
  StreamResult result;
  result.cache_contaminated = contaminated;
  result.worst = sim::kUnlimited;
  double sum = 0.0;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(config_.repetitions));
  for (int rep = 0; rep < config_.repetitions; ++rep) {
    // Run-to-run noise is one-sided: OS jitter only ever *slows* a rep,
    // which is why the paper reports the max of 100 runs.
    const double slowdown = std::abs(rng.normal(0.010, 0.008));
    const double value = base * (1.0 - std::min(slowdown, 0.5));
    result.best = std::max(result.best, value);
    result.worst = std::min(result.worst, value);
    sum += value;
    samples.push_back(value);
  }
  result.mean = sum / config_.repetitions;

  const sim::RobustSummary robust = sim::robust_summarize(samples);
  result.robust = robust.trimmed_mean;
  result.mad = robust.mad;
  result.low_confidence = robust.low_confidence || contaminated;

  for (auto& b : buffers) host_.free(b);
  return result;
}

}  // namespace numaio::mem
