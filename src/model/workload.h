// Synthetic data-intensive workloads: open-loop arrivals of bulk I/O
// tasks, the setting the paper's future work targets ("mechanisms of
// placing and migrating parallel I/O threads for data-intensive
// applications", §VI). Deterministic: all randomness derives from the
// config seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/status.h"
#include "simcore/units.h"

namespace numaio::model {

/// One bulk transfer request against a device.
struct IoTask {
  std::string engine;      ///< Device personality (io:: engine name).
  sim::Bytes bytes = 0;    ///< Total payload.
  sim::Ns arrival = 0.0;   ///< Absolute arrival time.
};

/// Task sizes are log-uniform over [4 GiB, 64 GiB].
inline constexpr sim::Bytes kWorkloadMinBytes = 4 * sim::kGiB;
inline constexpr sim::Bytes kWorkloadMaxBytes = 64 * sim::kGiB;

struct WorkloadConfig {
  std::uint64_t seed = 20130601;
  int num_tasks = 40;
  /// Mean of the exponential interarrival distribution.
  sim::Ns mean_interarrival = 2.0e9;  // 2 seconds
  /// Engines drawn uniformly per task.
  std::vector<std::string> engine_mix;

  /// ok(), or kUsage naming the first bad field: `num_tasks` below 1, an
  /// empty `engine_mix`, or a `mean_interarrival` that is not finite and
  /// > 0, or whose product with `num_tasks` exceeds 2^53 ns (~104 days;
  /// past it, double nanoseconds no longer resolve 1 ns).
  Status validate() const;
};

/// Generates `num_tasks` tasks with exponential interarrivals and
/// log-uniform sizes, cycling deterministically through the engine mix
/// weights via the seeded RNG. Throws StatusError(kUsage) when
/// config.validate() fails.
std::vector<IoTask> generate_workload(const WorkloadConfig& config);

}  // namespace numaio::model
