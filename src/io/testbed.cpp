#include "io/testbed.h"

#include "fabric/calibration.h"

namespace numaio::io {

Testbed::Testbed(std::unique_ptr<fabric::Machine> machine, NodeId device_node,
                 bool lite_nic)
    : machine_(std::move(machine)),
      host_(std::make_unique<nm::Host>(*machine_)),
      nic_(lite_nic ? make_connectx3_lite(*machine_, device_node)
                    : make_connectx3(*machine_, device_node)),
      ssds_(make_nytro_pair(*machine_, device_node)) {}

Testbed Testbed::dl585() { return dl585_with_devices_on(7); }

Testbed Testbed::dl585_with_devices_on(NodeId node) {
  return Testbed(std::make_unique<fabric::Machine>(fabric::dl585_profile()),
                 node);
}

Testbed Testbed::dl585_lite() {
  return Testbed(std::make_unique<fabric::Machine>(fabric::dl585_profile()),
                 /*device_node=*/7, /*lite_nic=*/true);
}

std::vector<const PcieDevice*> Testbed::ssds() const {
  std::vector<const PcieDevice*> out;
  out.reserve(ssds_.size());
  for (const auto& ssd : ssds_) out.push_back(ssd.get());
  return out;
}

}  // namespace numaio::io
