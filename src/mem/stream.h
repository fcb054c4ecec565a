// The STREAM benchmark (McCalpin [15]) over the simulated host, following
// the paper's protocol exactly (§III-B1, §IV-A):
//  - four kernels (Copy/Scale/Add/Triad) on large arrays,
//  - arrays at least 4x the LLC, or the run is cache-contaminated,
//  - multi-threaded (one thread per core of the executing node),
//  - each configuration run 100 times, reporting the *maximum*,
//  - CPU and memory nodes pinned externally (numactl-style),
//  - Copy is the kernel used for characterization (no computation, closest
//    to I/O transfer behaviour).
#pragma once

#include <cstdint>
#include <string>

#include "nm/host.h"
#include "simcore/rng.h"

namespace numaio::mem {

using topo::NodeId;

enum class StreamKind { kCopy, kScale, kAdd, kTriad };

std::string to_string(StreamKind kind);

/// Standard config aggregate (DESIGN.md §11 "Config aggregates"): plain
/// struct, in-struct field defaults, passed const& with a `= {}` default
/// so call sites name only the knobs they change. io::StreamSpec and
/// faults::RandomPlanConfig share the shape.
struct StreamConfig {
  StreamKind kind = StreamKind::kCopy;
  /// Array length in 8-byte elements. Default follows the paper: the LLC is
  /// 5 MB, so arrays must hold at least 2,621,440 "long integers" (20 MB).
  std::uint64_t array_elems = 2'621'440;
  int threads = 0;          ///< 0 = all cores of the executing node.
  int repetitions = 100;
  std::uint64_t seed = 20130213;  ///< Master seed for run-to-run noise.
};

struct StreamResult {
  sim::Gbps best = 0.0;   ///< Max over repetitions (what the paper reports).
  sim::Gbps mean = 0.0;
  sim::Gbps worst = 0.0;
  /// Outlier-robust estimate: the 10%-trimmed mean of the repetitions.
  /// Unlike `best` (the paper's max-of-100) or the plain `mean`, one
  /// interference-poisoned rep cannot drag it, so degraded-mode consumers
  /// should prefer it for characterization.
  sim::Gbps robust = 0.0;
  /// Median absolute deviation of the repetitions, Gbps.
  sim::Gbps mad = 0.0;
  /// True when the reps dispersed suspiciously (MAD/median above the
  /// robust_summarize threshold) or the run was cache-contaminated — the
  /// numbers are usable but should not gate re-characterization decisions.
  bool low_confidence = false;
  /// True when the arrays were too small relative to the LLC, so results
  /// are inflated by cache reuse and untrustworthy for characterization.
  bool cache_contaminated = false;
};

class StreamBenchmark {
 public:
  explicit StreamBenchmark(nm::Host& host, const StreamConfig& config = {});

  /// Runs the benchmark with threads pinned to cpu_node and all arrays
  /// allocated on mem_node (the numactl binding of §IV-A).
  StreamResult run(NodeId cpu_node, NodeId mem_node);

  const StreamConfig& config() const { return config_; }

 private:
  nm::Host& host_;
  StreamConfig config_;
};

}  // namespace numaio::mem
