#include "fabric/machine.h"

#include <cassert>
#include <utility>

#include "topo/routing.h"

namespace numaio::fabric {

Machine::Machine(HostProfile profile) : profile_(std::move(profile)) {
  const int n = profile_.num_nodes();
  fabric_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  mc_read_.reserve(static_cast<std::size_t>(n));
  mc_write_.reserve(static_cast<std::size_t>(n));
  cpu_.reserve(static_cast<std::size_t>(n));

  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      fabric_[static_cast<std::size_t>(a * n + b)] =
          solver_.add_resource(profile_.paths.at(a, b).dma_cap);
    }
  }

  // Fabric usage lists per ordered pair: the pair resource, plus directed
  // link resources along the routed path when the profile models
  // link-level contention.
  fabric_usages_.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), {});
  std::vector<sim::ResourceId> link_dir(profile_.topo.links().size() * 2, 0);
  if (profile_.link_level_contention) {
    for (std::size_t l = 0; l < profile_.topo.links().size(); ++l) {
      const topo::LinkSpec& link = profile_.topo.links()[l];
      link_dir[2 * l] = solver_.add_resource(
          link.width_bits_ab * profile_.link_gbps_per_width_bit);
      link_dir[2 * l + 1] = solver_.add_resource(
          link.width_bits_ba * profile_.link_gbps_per_width_bit);
    }
  }
  // Routing is only needed when links carry their own resources.
  const topo::Routing routing(profile_.topo, topo::Routing::Metric::kLatency);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      auto& usages = fabric_usages_[static_cast<std::size_t>(a * n + b)];
      usages.push_back({fabric_[static_cast<std::size_t>(a * n + b)], 1.0});
      if (!profile_.link_level_contention) continue;
      const topo::Route& route = routing.route(a, b);
      for (std::size_t i = 0; i + 1 < route.nodes.size(); ++i) {
        const int li =
            profile_.topo.link_index(route.nodes[i], route.nodes[i + 1]);
        assert(li >= 0);
        const topo::LinkSpec& link =
            profile_.topo.links()[static_cast<std::size_t>(li)];
        const bool forward = link.a == route.nodes[i];
        usages.push_back(
            {link_dir[2 * static_cast<std::size_t>(li) + (forward ? 0 : 1)],
             1.0});
      }
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    const sim::Gbps local = profile_.paths.at(i, i).dma_cap;
    mc_read_.push_back(solver_.add_resource(local));
    mc_write_.push_back(solver_.add_resource(local));
    cpu_.push_back(solver_.add_resource(profile_.cpu_units_per_core *
                                        topology().node(i).cores));
  }
}

namespace {
// A stalled resource keeps an epsilon of capacity so the progressive-
// filling solve stays finite; the fluid layer's control events bound the
// starvation window in time.
constexpr double kMinScale = 1e-9;
double clamp_scale(double scale) {
  return scale < kMinScale ? kMinScale : scale;
}
}  // namespace

// Scales ride on the solver's capacity factors: the calibrated base
// capacity stays in the solver (set at add_resource time) and a scale of
// 1.0 restores it bit-exactly without re-deriving it from the profile.
// The solver also skips the epoch bump when the effective capacity is
// unchanged, so re-applying the current scale keeps its solve cache warm.
void Machine::set_fabric_scale(NodeId src, NodeId dst, double scale) {
  assert(src != dst);
  assert(src >= 0 && src < num_nodes() && dst >= 0 && dst < num_nodes());
  const auto idx = static_cast<std::size_t>(src * num_nodes() + dst);
  solver_.set_capacity_factor(fabric_[idx], clamp_scale(scale));
}

void Machine::set_mc_scale(NodeId node, double scale) {
  assert(node >= 0 && node < num_nodes());
  const double f = clamp_scale(scale);
  solver_.set_capacity_factor(mc_read_[static_cast<std::size_t>(node)], f);
  solver_.set_capacity_factor(mc_write_[static_cast<std::size_t>(node)], f);
}

void Machine::set_cpu_scale(NodeId node, double scale) {
  assert(node >= 0 && node < num_nodes());
  solver_.set_capacity_factor(cpu_[static_cast<std::size_t>(node)],
                              clamp_scale(scale));
}

void Machine::reset_fault_scales() {
  for (NodeId a = 0; a < num_nodes(); ++a) {
    for (NodeId b = 0; b < num_nodes(); ++b) {
      if (a == b) continue;
      set_fabric_scale(a, b, 1.0);
    }
    set_mc_scale(a, 1.0);
    set_cpu_scale(a, 1.0);
  }
}

sim::ResourceId Machine::fabric_resource(NodeId src, NodeId dst) const {
  assert(src != dst);
  assert(src >= 0 && src < num_nodes() && dst >= 0 && dst < num_nodes());
  return fabric_[static_cast<std::size_t>(src * num_nodes() + dst)];
}

sim::ResourceId Machine::mc_read(NodeId node) const {
  assert(node >= 0 && node < num_nodes());
  return mc_read_[static_cast<std::size_t>(node)];
}

sim::ResourceId Machine::mc_write(NodeId node) const {
  assert(node >= 0 && node < num_nodes());
  return mc_write_[static_cast<std::size_t>(node)];
}

sim::ResourceId Machine::cpu(NodeId node) const {
  assert(node >= 0 && node < num_nodes());
  return cpu_[static_cast<std::size_t>(node)];
}

const std::vector<sim::Usage>& Machine::fabric_usages(NodeId src,
                                                      NodeId dst) const {
  assert(src != dst);
  assert(src >= 0 && src < num_nodes() && dst >= 0 && dst < num_nodes());
  return fabric_usages_[static_cast<std::size_t>(src * num_nodes() + dst)];
}

namespace {
void append(std::vector<sim::Usage>& out,
            const std::vector<sim::Usage>& extra) {
  out.insert(out.end(), extra.begin(), extra.end());
}
}  // namespace

std::vector<sim::Usage> Machine::copy_usages(NodeId via, NodeId src,
                                             NodeId dst) const {
  std::vector<sim::Usage> usages;
  usages.push_back({mc_read(src), 1.0});
  if (src != via) append(usages, fabric_usages(src, via));
  if (via != dst) append(usages, fabric_usages(via, dst));
  usages.push_back({mc_write(dst), 1.0});
  return usages;
}

std::vector<sim::Usage> Machine::dma_usages(NodeId mem_node, NodeId dev_node,
                                            bool to_device) const {
  std::vector<sim::Usage> usages;
  if (to_device) {
    usages.push_back({mc_read(mem_node), 1.0});
    if (mem_node != dev_node) {
      append(usages, fabric_usages(mem_node, dev_node));
    }
  } else {
    if (mem_node != dev_node) {
      append(usages, fabric_usages(dev_node, mem_node));
    }
    usages.push_back({mc_write(mem_node), 1.0});
  }
  return usages;
}

}  // namespace numaio::fabric
