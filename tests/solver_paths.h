// Test helper: a flow over a path of resources, each crossed at unit
// weight. The shipped callers build weighted usages themselves.
#pragma once

#include <utility>
#include <vector>

#include "simcore/flow_solver.h"

namespace numaio::sim::test {

inline FlowId add_flow_over(FlowSolver& solver,
                            const std::vector<ResourceId>& path,
                            Gbps rate_cap = kUnlimited) {
  std::vector<Usage> usages;
  usages.reserve(path.size());
  for (const ResourceId r : path) usages.push_back(Usage{r, 1.0});
  return solver.add_flow(std::move(usages), rate_cap);
}

}  // namespace numaio::sim::test
