// The STREAM benchmark (McCalpin [15]) over the simulated host, following
// the paper's protocol exactly (§III-B1, §IV-A):
//  - four kernels (Copy/Scale/Add/Triad) on large arrays,
//  - arrays at least 4x the LLC (so no cache reuse inflates them),
//  - multi-threaded (one thread per core of the executing node),
//  - each configuration run 100 times, reporting the *maximum*,
//  - CPU and memory nodes pinned externally (numactl-style),
//  - Copy is the kernel used for characterization (no computation, closest
//    to I/O transfer behaviour).
#pragma once

#include <cstdint>

#include "nm/host.h"
#include "simcore/rng.h"

namespace numaio::mem {

using topo::NodeId;

enum class StreamKind { kCopy, kScale, kAdd, kTriad };

/// The paper's fixed protocol (§III-B1): the LLC is 5 MB, so each array
/// holds 2,621,440 "long integers" (20 MB); every run takes the best of
/// 100 repetitions, with one thread per core of the executing node.
inline constexpr std::uint64_t kStreamArrayElems = 2'621'440;
inline constexpr int kStreamRepetitions = 100;

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
  /// robust_summarize threshold) — the numbers are usable but should not
  /// gate re-characterization decisions.
  bool low_confidence = false;
};

class StreamBenchmark {
 public:
  explicit StreamBenchmark(nm::Host& host,
                           StreamKind kind = StreamKind::kCopy)
      : host_(host), kind_(kind) {}

  /// Runs the benchmark with threads pinned to cpu_node and all arrays
  /// allocated on mem_node (the numactl binding of §IV-A).
  StreamResult run(NodeId cpu_node, NodeId mem_node);

 private:
  nm::Host& host_;
  StreamKind kind_;
};

}  // namespace numaio::mem
