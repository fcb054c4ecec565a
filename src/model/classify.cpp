#include "model/classify.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace numaio::model {

Status ClassifyConfig::validate() const {
  if (!std::isfinite(rel_gap) || rel_gap < 0.0 || rel_gap > 1.0) {
    return Status{StatusCode::kUsage, "rel_gap must be finite and in [0, 1]"};
  }
  return Status{};
}

Classification classify(const IoModelResult& model,
                        const topo::Topology& topo,
                        const ClassifyConfig& config) {
  return classify_values(model.bw, model.target, topo, config);
}

Classification classify_values(std::span<const sim::Gbps> bw, NodeId target,
                               const topo::Topology& topo,
                               const ClassifyConfig& config) {
  if (const Status status = config.validate(); !status.ok()) {
    throw StatusError(status);
  }
  const int n = static_cast<int>(bw.size());
  assert(n == topo.num_nodes());
  assert(target >= 0 && target < n);

  // Class 1: the target and its package neighbors, unconditionally.
  std::vector<NodeId> first{target};
  for (NodeId peer : topo.package_peers(target)) first.push_back(peer);
  std::sort(first.begin(), first.end());
  std::vector<bool> in_first(static_cast<std::size_t>(n), false);
  for (NodeId v : first) in_first[static_cast<std::size_t>(v)] = true;

  // Remote nodes cluster by the shared gap walk (ids ascend, so each
  // class collects its members in sorted order directly).
  std::vector<NodeId> remote;
  std::vector<double> remote_bw;
  for (NodeId v = 0; v < n; ++v) {
    if (in_first[static_cast<std::size_t>(v)]) continue;
    remote.push_back(v);
    remote_bw.push_back(bw[static_cast<std::size_t>(v)]);
  }
  const std::vector<int> remote_class = gap_classes(remote_bw, config.rel_gap);

  std::vector<std::vector<NodeId>> classes{std::move(first)};
  int remote_classes = 0;
  for (const int c : remote_class) remote_classes = std::max(remote_classes, c + 1);
  classes.resize(1 + static_cast<std::size_t>(remote_classes));
  for (std::size_t i = 0; i < remote.size(); ++i) {
    classes[1 + static_cast<std::size_t>(remote_class[i])].push_back(
        remote[i]);
  }
  return summarize_classes(std::move(classes), bw);
}

Classification summarize_classes(std::vector<std::vector<NodeId>> classes,
                                 std::span<const double> values) {
  Classification result;
  result.class_of.assign(values.size(), 0);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    assert(!classes[c].empty());
    double lo = values[static_cast<std::size_t>(classes[c].front())];
    double hi = lo;
    double sum = 0.0;
    for (NodeId v : classes[c]) {
      result.class_of[static_cast<std::size_t>(v)] = static_cast<int>(c);
      const double value = values[static_cast<std::size_t>(v)];
      sum += value;
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    result.class_avg.push_back(sum / static_cast<double>(classes[c].size()));
    result.class_range.emplace_back(lo, hi);
  }
  result.classes = std::move(classes);
  return result;
}

std::vector<NodeId> near_best_pool(const Classification& classes,
                                   std::span<const double> class_values,
                                   double tolerance) {
  assert(static_cast<int>(class_values.size()) == classes.num_classes());
  const double best =
      *std::max_element(class_values.begin(), class_values.end());
  std::vector<NodeId> pool;
  for (std::size_t c = 0; c < class_values.size(); ++c) {
    if (class_values[c] >= best * (1.0 - tolerance)) {
      pool.insert(pool.end(), classes.classes[c].begin(),
                  classes.classes[c].end());
    }
  }
  assert(!pool.empty());
  std::sort(pool.begin(), pool.end());
  return pool;
}

std::vector<int> gap_classes(std::span<const double> values, double rel_gap) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] > values[b];
    return a < b;
  });
  std::vector<int> class_of(n, 0);
  int cls = 0;
  double prev = std::numeric_limits<double>::infinity();
  bool first = true;
  for (const std::size_t pos : order) {
    const double value = values[pos];
    if (!first && value < prev * (1.0 - rel_gap)) ++cls;
    class_of[pos] = cls;
    prev = value;
    first = false;
  }
  return class_of;
}

std::vector<NodeId> representative_nodes(const Classification& c) {
  std::vector<NodeId> reps;
  reps.reserve(c.classes.size());
  for (const auto& cls : c.classes) {
    assert(!cls.empty());
    reps.push_back(cls.front());
  }
  return reps;
}

}  // namespace numaio::model
