#include "model/workload.h"

#include <cassert>
#include <cmath>

#include "simcore/rng.h"

namespace numaio::model {

std::vector<IoTask> generate_workload(const WorkloadConfig& config) {
  assert(config.num_tasks > 0);
  assert(!config.engine_mix.empty());

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
