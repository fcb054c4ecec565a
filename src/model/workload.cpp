#include "model/workload.h"

#include <cmath>

#include "simcore/rng.h"

namespace numaio::model {

Status WorkloadConfig::validate() const {
  const auto usage = [](const char* message) {
    return Status{StatusCode::kUsage, message};
  };
  if (num_tasks < 1) return usage("num_tasks must be >= 1");
  if (engine_mix.empty()) return usage("engine_mix must not be empty");
  if (!std::isfinite(mean_interarrival) || mean_interarrival <= 0.0) {
    return usage("mean_interarrival must be finite and > 0");
  }
  // Past 2^53 ns (~104 days) adjacent doubles are more than 1 ns apart.
  if (num_tasks * mean_interarrival > 0x1p53) {
    return usage("mean_interarrival x num_tasks must not exceed 2^53 ns");
  }
  return Status{};
}

std::vector<IoTask> generate_workload(const WorkloadConfig& config) {
  if (const Status status = config.validate(); !status.ok()) {
    throw StatusError(status);
  }

  sim::Rng rng(config.seed);
  std::vector<IoTask> tasks;
  tasks.reserve(static_cast<std::size_t>(config.num_tasks));
  sim::Ns clock = 0.0;
  const double log_min = std::log(static_cast<double>(kWorkloadMinBytes));
  const double log_max = std::log(static_cast<double>(kWorkloadMaxBytes));
  for (int i = 0; i < config.num_tasks; ++i) {
    // Exponential interarrival via inverse transform.
    const double u = rng.uniform();
    clock += -config.mean_interarrival * std::log(1.0 - u);

    IoTask task;
    task.arrival = clock;
    task.engine = config.engine_mix[rng.below(config.engine_mix.size())];
    // Log-uniform sizes: bulk-transfer workloads span orders of magnitude.
    task.bytes = static_cast<sim::Bytes>(
        std::exp(rng.uniform(log_min, log_max)));
    tasks.push_back(std::move(task));
  }
  return tasks;
}

}  // namespace numaio::model
