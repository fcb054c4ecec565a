#include "model/crossval.h"

#include <cassert>

#include "mem/numademo.h"
#include "mem/stream.h"
#include "model/analysis.h"

namespace numaio::model {

CrossValidation cross_validate(nm::Host& host) {
  const int n = host.num_configured_nodes();
  CrossValidation cv;

  for (mem::DemoModule module : mem::all_demo_modules()) {
    cv.names.push_back(mem::to_string(module));
    std::vector<double> flat;
    flat.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (NodeId cpu = 0; cpu < n; ++cpu) {
      for (NodeId mem_node = 0; mem_node < n; ++mem_node) {
        flat.push_back(
            mem::run_demo(host, module, cpu, mem_node).bandwidth);
      }
    }
    cv.cells.push_back(std::move(flat));
  }
  {
    // STREAM Copy with the paper's full protocol (best of repetitions).
    cv.names.push_back("STREAM-Copy");
    mem::StreamBenchmark bench(host);
    std::vector<double> flat;
    for (NodeId cpu = 0; cpu < n; ++cpu) {
      for (NodeId mem_node = 0; mem_node < n; ++mem_node) {
        flat.push_back(bench.run(cpu, mem_node).best);
      }
    }
    cv.cells.push_back(std::move(flat));
  }

  const std::size_t k = cv.names.size();
  cv.agreement.assign(k, std::vector<double>(k, 1.0));
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      const double rho = spearman(cv.cells[a], cv.cells[b]);
      cv.agreement[a][b] = rho;
      cv.agreement[b][a] = rho;
    }
  }
  return cv;
}

std::vector<std::vector<int>> agreement_clusters(const CrossValidation& cv,
                                                 double threshold) {
  const int k = static_cast<int>(cv.names.size());
  std::vector<bool> assigned(static_cast<std::size_t>(k), false);
  std::vector<std::vector<int>> clusters;
  for (int seed = 0; seed < k; ++seed) {
    if (assigned[static_cast<std::size_t>(seed)]) continue;
    std::vector<int> cluster{seed};
    assigned[static_cast<std::size_t>(seed)] = true;
    for (int other = seed + 1; other < k; ++other) {
      if (assigned[static_cast<std::size_t>(other)]) continue;
      if (cv.agreement[static_cast<std::size_t>(seed)]
                      [static_cast<std::size_t>(other)] >= threshold) {
        cluster.push_back(other);
        assigned[static_cast<std::size_t>(other)] = true;
      }
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

}  // namespace numaio::model
