#include "io/device.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace numaio::io {

PcieDevice::PcieDevice(fabric::Machine& machine, std::string name,
                       NodeId attach_node, PcieLink pcie,
                       std::vector<EngineSpec> engines)
    : machine_(machine),
      name_(std::move(name)),
      attach_node_(attach_node),
      irq_node_(attach_node),
      pcie_(pcie),
      engines_(std::move(engines)) {
  assert(attach_node_ >= 0 && attach_node_ < machine_.num_nodes());
  assert(machine_.topology().node(attach_node_).io_hub &&
         "device must attach to a node with an I/O hub");
  auto& solver = machine_.solver();
  engine_res_.reserve(engines_.size());
  for (const EngineSpec& e : engines_) {
    assert(e.device_cap > 0.0 && e.window_bits > 0.0);
    (void)e;
    engine_res_.push_back(solver.add_resource(1.0));
  }
  pcie_to_dev_ = solver.add_resource(pcie_.data_gbps());
  pcie_from_dev_ = solver.add_resource(pcie_.data_gbps());
}

void PcieDevice::set_irq_node(NodeId node) {
  assert(node >= 0 && node < machine_.num_nodes());
  irq_node_ = node;
}

const EngineSpec& PcieDevice::engine(std::string_view engine_name) const {
  for (const EngineSpec& e : engines_) {
    if (e.name == engine_name) return e;
  }
  throw std::out_of_range("PcieDevice '" + name_ + "' has no engine '" +
                          std::string(engine_name) + "'");
}

sim::ResourceId PcieDevice::engine_resource(
    std::string_view engine_name) const {
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (engines_[i].name == engine_name) return engine_res_[i];
  }
  throw std::out_of_range("PcieDevice '" + name_ + "' has no engine '" +
                          std::string(engine_name) + "'");
}

sim::ResourceId PcieDevice::pcie_resource(bool to_device) const {
  return to_device ? pcie_to_dev_ : pcie_from_dev_;
}

std::vector<sim::ResourceId> PcieDevice::fault_resources() const {
  std::vector<sim::ResourceId> resources = engine_res_;
  resources.push_back(pcie_to_dev_);
  resources.push_back(pcie_from_dev_);
  return resources;
}

}  // namespace numaio::io
