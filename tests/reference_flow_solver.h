// Reference max-min-fair allocator: the historical FlowSolver algorithm,
// retained verbatim for property testing. It stores flows as per-flow
// usage vectors, never recycles ids, rescans every flow each round and
// allocates all scratch per solve — exactly the pre-CSR implementation —
// so the production solver's rates can be asserted *bit-identical*
// against it under arbitrary add/remove/capacity churn.
//
// Do not "improve" this file: its value is that it stays frozen.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "simcore/flow_solver.h"
#include "simcore/units.h"

namespace numaio::sim::test {

class ReferenceFlowSolver {
 public:
  ResourceId add_resource(Gbps capacity) {
    capacities_.push_back(capacity);
    return capacities_.size() - 1;
  }

  void set_capacity(ResourceId id, Gbps capacity) {
    capacities_[id] = capacity;
  }

  std::size_t add_flow(std::vector<Usage> usages, Gbps rate_cap) {
    flows_.push_back(Flow{std::move(usages), rate_cap, true});
    ++live_flows_;
    return flows_.size() - 1;
  }

  void remove_flow(std::size_t id) {
    assert(flows_[id].alive);
    flows_[id].alive = false;
    --live_flows_;
  }

  std::vector<Gbps> solve() const {
    std::vector<Gbps> rate(flows_.size(), 0.0);
    if (live_flows_ == 0) return rate;

    constexpr double kWeightEps = 1e-9;

    std::vector<bool> frozen(flows_.size(), true);
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      frozen[f] = !flows_[f].alive;
    }

    std::vector<Gbps> residual(capacities_.size());
    for (ResourceId r = 0; r < capacities_.size(); ++r) {
      residual[r] = capacities_[r];
    }
    std::vector<double> weight(capacities_.size(), 0.0);
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      if (frozen[f]) continue;
      for (const Usage& u : flows_[f].usages) weight[u.resource] += u.weight;
    }

    std::size_t unfrozen = live_flows_;
    while (unfrozen > 0) {
      double delta = std::numeric_limits<double>::infinity();
      for (ResourceId r = 0; r < capacities_.size(); ++r) {
        if (weight[r] > kWeightEps && std::isfinite(residual[r])) {
          delta = std::min(delta, std::max(residual[r], 0.0) / weight[r]);
        }
      }
      for (std::size_t f = 0; f < flows_.size(); ++f) {
        if (!frozen[f] && std::isfinite(flows_[f].cap)) {
          delta = std::min(delta, flows_[f].cap - rate[f]);
        }
      }
      assert(std::isfinite(delta));
      delta = std::max(delta, 0.0);

      for (std::size_t f = 0; f < flows_.size(); ++f) {
        if (frozen[f]) continue;
        rate[f] += delta;
        for (const Usage& u : flows_[f].usages) {
          residual[u.resource] -= delta * u.weight;
        }
      }

      constexpr double kEps = 1e-12;
      std::vector<bool> saturated(capacities_.size(), false);
      for (ResourceId r = 0; r < capacities_.size(); ++r) {
        if (weight[r] > kWeightEps && std::isfinite(residual[r]) &&
            residual[r] <= kEps * std::max(1.0, capacities_[r])) {
          saturated[r] = true;
        }
      }
      bool any_frozen_this_round = false;
      for (std::size_t f = 0; f < flows_.size(); ++f) {
        if (frozen[f]) continue;
        bool freeze =
            std::isfinite(flows_[f].cap) && rate[f] >= flows_[f].cap - kEps;
        if (!freeze) {
          for (const Usage& u : flows_[f].usages) {
            if (saturated[u.resource]) {
              freeze = true;
              break;
            }
          }
        }
        if (freeze) {
          frozen[f] = true;
          --unfrozen;
          any_frozen_this_round = true;
          for (const Usage& u : flows_[f].usages) {
            weight[u.resource] -= u.weight;
            if (weight[u.resource] < kWeightEps) weight[u.resource] = 0.0;
          }
        }
      }
      if (!any_frozen_this_round) {
        assert(false && "reference solver failed to make progress");
        break;
      }
    }
    return rate;
  }

  Gbps aggregate_rate() const {
    const auto rates = solve();
    Gbps sum = 0.0;
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      if (flows_[f].alive) sum += rates[f];
    }
    return sum;
  }

  double utilization(ResourceId id) const {
    if (!std::isfinite(capacities_[id]) || capacities_[id] <= 0.0) {
      return 0.0;
    }
    const auto rates = solve();
    double used = 0.0;
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      if (!flows_[f].alive) continue;
      for (const Usage& u : flows_[f].usages) {
        if (u.resource == id) used += rates[f] * u.weight;
      }
    }
    return used / capacities_[id];
  }

 private:
  struct Flow {
    std::vector<Usage> usages;
    Gbps cap = kUnlimited;
    bool alive = false;
  };

  std::vector<Gbps> capacities_;
  std::vector<Flow> flows_;
  std::size_t live_flows_ = 0;
};

}  // namespace numaio::sim::test
