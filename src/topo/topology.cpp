#include "topo/topology.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace numaio::topo {

namespace {

void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument("Topology: " + what);
}

}  // namespace

Topology Topology::build(std::string name, std::vector<NodeSpec> nodes,
                         std::vector<LinkSpec> links) {
  require(!nodes.empty(), "at least one node required");
  const int n = static_cast<int>(nodes.size());

  std::set<std::pair<NodeId, NodeId>> seen;
  for (const LinkSpec& l : links) {
    require(l.a >= 0 && l.a < n && l.b >= 0 && l.b < n,
            "link endpoint out of range");
    require(l.a != l.b, "self-links are not allowed");
    require(l.width_bits_ab > 0 && l.width_bits_ba > 0,
            "link widths must be positive");
    require(l.latency_ns > 0, "link latency must be positive");
    const auto key = std::minmax(l.a, l.b);
    require(seen.insert(key).second, "duplicate link between a node pair");
  }

  // Connectivity (single node is trivially connected).
  if (n > 1) {
    std::vector<bool> reached(static_cast<std::size_t>(n), false);
    std::vector<NodeId> stack{0};
    reached[0] = true;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const LinkSpec& l : links) {
        const NodeId v = l.a == u ? l.b : (l.b == u ? l.a : -1);
        if (v >= 0 && !reached[static_cast<std::size_t>(v)]) {
          reached[static_cast<std::size_t>(v)] = true;
          stack.push_back(v);
        }
      }
    }
    require(std::all_of(reached.begin(), reached.end(),
                        [](bool r) { return r; }),
            "graph must be connected");
  }

  // AMD G34 port budget (§II-A): at most four 16-bit HT ports per die; an
  // attached I/O hub consumes one. 8-bit links consume half a port
  // (unganged mode).
  for (NodeId u = 0; u < n; ++u) {
    double width_total = 0.0;
    for (const LinkSpec& l : links) {
      if (l.a == u) width_total += std::max(l.width_bits_ab, l.width_bits_ba);
      if (l.b == u) width_total += std::max(l.width_bits_ab, l.width_bits_ba);
    }
    const double ports =
        width_total / 16.0 + (nodes[static_cast<std::size_t>(u)].io_hub ? 1.0 : 0.0);
    require(ports <= 4.0 + 1e-9, "node exceeds the 4-HT-port budget");
  }

  for (const NodeSpec& spec : nodes) {
    require(spec.cores > 0, "node must have at least one core");
    require(spec.memory_gb > 0, "node must have memory attached");
    require(spec.package >= 0, "package index must be non-negative");
  }

  Topology t;
  t.name_ = std::move(name);
  t.nodes_ = std::move(nodes);
  t.links_ = std::move(links);
  t.link_of_pair_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < t.links_.size(); ++i) {
    const LinkSpec& l = t.links_[i];
    t.link_of_pair_[static_cast<std::size_t>(l.a * n + l.b)] = static_cast<int>(i);
    t.link_of_pair_[static_cast<std::size_t>(l.b * n + l.a)] = static_cast<int>(i);
  }
  int max_pkg = 0;
  for (const NodeSpec& spec : t.nodes_) max_pkg = std::max(max_pkg, spec.package);
  t.num_packages_ = max_pkg + 1;
  return t;
}

const NodeSpec& Topology::node(NodeId id) const {
  assert(id >= 0 && id < num_nodes());
  return nodes_[static_cast<std::size_t>(id)];
}

int Topology::total_cores() const {
  int sum = 0;
  for (const NodeSpec& spec : nodes_) sum += spec.cores;
  return sum;
}

bool Topology::adjacent(NodeId a, NodeId b) const {
  return link_index(a, b) >= 0;
}

int Topology::link_index(NodeId a, NodeId b) const {
  assert(a >= 0 && a < num_nodes() && b >= 0 && b < num_nodes());
  if (a == b) return -1;
  return link_of_pair_[static_cast<std::size_t>(a * num_nodes() + b)];
}

double Topology::direction_width(NodeId a, NodeId b) const {
  const int idx = link_index(a, b);
  if (idx < 0) return 0.0;
  const LinkSpec& l = links_[static_cast<std::size_t>(idx)];
  return l.a == a ? l.width_bits_ab : l.width_bits_ba;
}

std::vector<NodeId> Topology::neighbors(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (v != id && adjacent(id, v)) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> Topology::package_peers(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (v != id && node(v).package == node(id).package) out.push_back(v);
  }
  return out;
}

}  // namespace numaio::topo
