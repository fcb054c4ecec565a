#include "topo/routing.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>

namespace numaio::topo {

namespace {

/// Dijkstra from `src` with deterministic tie-breaking: order candidate
/// labels by (cost, hops, path-so-far lexicographic). With at most a few
/// dozen nodes per host, the O(n^2) scan is plenty.
struct Label {
  double cost = std::numeric_limits<double>::infinity();
  int hops = 0;
  std::vector<NodeId> path;
  bool settled = false;
};

bool better(double cost, int hops, const std::vector<NodeId>& path,
            const Label& incumbent) {
  constexpr double kEps = 1e-12;
  if (cost < incumbent.cost - kEps) return true;
  if (cost > incumbent.cost + kEps) return false;
  if (hops != incumbent.hops) return hops < incumbent.hops;
  return path < incumbent.path;
}

}  // namespace

Routing::Routing(const Topology& topo, Metric metric) : topo_(topo) {
  const int n = topo.num_nodes();
  routes_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  latencies_.assign(routes_.size(), 0.0);

  for (NodeId src = 0; src < n; ++src) {
    std::vector<Label> label(static_cast<std::size_t>(n));
    auto& l0 = label[static_cast<std::size_t>(src)];
    l0.cost = 0.0;
    l0.hops = 0;
    l0.path = {src};

    for (int round = 0; round < n; ++round) {
      // Pick the unsettled node with the best label.
      NodeId u = -1;
      for (NodeId v = 0; v < n; ++v) {
        auto& lv = label[static_cast<std::size_t>(v)];
        if (lv.settled || lv.path.empty()) continue;
        if (u < 0 || better(lv.cost, lv.hops, lv.path,
                            label[static_cast<std::size_t>(u)])) {
          u = v;
        }
      }
      if (u < 0) break;
      auto& lu = label[static_cast<std::size_t>(u)];
      lu.settled = true;

      for (NodeId v : topo.neighbors(u)) {
        auto& lv = label[static_cast<std::size_t>(v)];
        if (lv.settled) continue;
        const int li = topo.link_index(u, v);
        assert(li >= 0);
        const LinkSpec& link = topo.links()[static_cast<std::size_t>(li)];
        const double edge =
            metric == Metric::kHops ? 1.0 : link.latency_ns;
        std::vector<NodeId> cand = lu.path;
        cand.push_back(v);
        if (better(lu.cost + edge, lu.hops + 1, cand, lv)) {
          lv.cost = lu.cost + edge;
          lv.hops = lu.hops + 1;
          lv.path = std::move(cand);
        }
      }
    }

    for (NodeId dst = 0; dst < n; ++dst) {
      auto& l = label[static_cast<std::size_t>(dst)];
      assert(!l.path.empty() && "topology is validated connected");
      sim::Ns lat = 0.0;
      for (std::size_t i = 0; i + 1 < l.path.size(); ++i) {
        const int li = topo.link_index(l.path[i], l.path[i + 1]);
        lat += topo.links()[static_cast<std::size_t>(li)].latency_ns;
      }
      latencies_[idx(src, dst)] = lat;
      routes_[idx(src, dst)] = Route{std::move(l.path)};
    }
  }
}

const Route& Routing::route(NodeId src, NodeId dst) const {
  assert(src >= 0 && src < topo_.num_nodes());
  assert(dst >= 0 && dst < topo_.num_nodes());
  return routes_[idx(src, dst)];
}

int Routing::hop_distance(NodeId src, NodeId dst) const {
  return route(src, dst).hops();
}

sim::Ns Routing::path_latency(NodeId src, NodeId dst) const {
  assert(src >= 0 && src < topo_.num_nodes());
  assert(dst >= 0 && dst < topo_.num_nodes());
  return latencies_[idx(src, dst)];
}

int Routing::diameter() const {
  int best = 0;
  const int n = topo_.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      best = std::max(best, hop_distance(s, d));
    }
  }
  return best;
}

double Routing::mean_remote_hops() const {
  const int n = topo_.num_nodes();
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s != d) sum += hop_distance(s, d);
    }
  }
  return sum / (static_cast<double>(n) * (n - 1));
}

}  // namespace numaio::topo
