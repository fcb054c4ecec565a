#include "model/baselines.h"

#include <algorithm>
#include <cassert>

namespace numaio::model {

HopModel fit_hop_model(const mem::BandwidthMatrix& bw,
                       const topo::Topology& topo) {
  assert(bw.num_nodes() == topo.num_nodes());
  const topo::Routing routing(topo, topo::Routing::Metric::kHops);
  const int n = topo.num_nodes();
  const int diameter = routing.diameter();

  HopModel model;
  model.level.assign(static_cast<std::size_t>(diameter) + 1, 0.0);
  std::vector<int> count(static_cast<std::size_t>(diameter) + 1, 0);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const auto h =
          static_cast<std::size_t>(routing.hop_distance(a, b));
      model.level[h] += bw.at(a, b);
      ++count[h];
    }
  }
  for (std::size_t h = 0; h < model.level.size(); ++h) {
    if (count[h] > 0) model.level[h] /= count[h];
  }
  return model;
}

std::vector<sim::Gbps> predict_for_target(const HopModel& model,
                                          const topo::Topology& topo,
                                          NodeId target) {
  const topo::Routing routing(topo, topo::Routing::Metric::kHops);
  std::vector<sim::Gbps> out;
  out.reserve(static_cast<std::size_t>(topo.num_nodes()));
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    out.push_back(model.predict(routing.hop_distance(i, target)));
  }
  return out;
}

Classification classify_by_hops(const topo::Topology& topo, NodeId target) {
  const topo::Routing routing(topo, topo::Routing::Metric::kHops);
  const auto n = static_cast<std::size_t>(topo.num_nodes());

  // Class 1: target + package peers (the paper's convention).
  std::vector<NodeId> first{target};
  for (NodeId peer : topo.package_peers(target)) first.push_back(peer);
  std::sort(first.begin(), first.end());
  std::vector<bool> in_first(n, false);
  for (NodeId v : first) in_first[static_cast<std::size_t>(v)] = true;
  std::vector<std::vector<NodeId>> classes{std::move(first)};

  // Remaining classes: one per hop count, ascending.
  for (int h = 1; h <= routing.diameter(); ++h) {
    std::vector<NodeId> members;
    for (NodeId v = 0; v < topo.num_nodes(); ++v) {
      if (!in_first[static_cast<std::size_t>(v)] &&
          routing.hop_distance(v, target) == h) {
        members.push_back(v);
      }
    }
    if (!members.empty()) classes.push_back(std::move(members));
  }
  // Hop classes carry no bandwidth values: their statistics are zeros.
  return summarize_classes(std::move(classes), std::vector<double>(n, 0.0));
}

double class_agreement(const Classification& reference,
                       const Classification& other) {
  assert(reference.class_of.size() == other.class_of.size());
  const std::size_t n = reference.class_of.size();
  long long agree = 0, comparable = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const int ra = reference.class_of[a];
      const int rb = reference.class_of[b];
      if (ra == rb) continue;
      const int oa = other.class_of[a];
      const int ob = other.class_of[b];
      if (oa == ob) continue;
      ++comparable;
      if ((ra < rb) == (oa < ob)) ++agree;
    }
  }
  return comparable > 0
             ? static_cast<double>(agree) / static_cast<double>(comparable)
             : 1.0;
}

}  // namespace numaio::model
