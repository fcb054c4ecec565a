// Testbed: the paper's complete experimental rig (Fig 2) in one object —
// the DL585 host with a ConnectX-3 NIC and two Nytro WarpDrive SSDs, all
// attached to node 7. The "other identical host" of the network tests is
// never the bottleneck (both ends are tuned per vendor recommendations),
// so the network peer is represented by the NIC engines' ceilings: an
// optimally placed peer. io::HostPair models a peer with its own binding.
#pragma once

#include <memory>
#include <vector>

#include "io/fio.h"
#include "io/nic.h"
#include "io/ssd.h"

namespace numaio::io {

class Testbed {
 public:
  /// The paper's configuration: devices on node 7.
  static Testbed dl585();

  /// A DL585-calibrated rig with devices attached to another I/O-hub node
  /// (node 1 carries the second hub).
  static Testbed dl585_with_devices_on(NodeId node);

  /// The mixed-fleet "lite" SKU: the same DL585 fabric but carrying the
  /// previous-generation NIC (io::make_connectx3_lite, ~55% of the
  /// ConnectX-3's ceilings). Distinct enough that fleet-level gap
  /// classification separates the two SKUs into different classes.
  static Testbed dl585_lite();

  fabric::Machine& machine() { return *machine_; }
  nm::Host& host() { return *host_; }
  PcieDevice& nic() { return *nic_; }
  /// Both SSD cards (for FioJob::devices).
  std::vector<const PcieDevice*> ssds() const;
  /// The NIC and both cards.
  DeviceSet devices() const { return {nic_.get(), ssds()}; }
  NodeId device_node() const { return nic_->attach_node(); }

 private:
  Testbed(std::unique_ptr<fabric::Machine> machine, NodeId device_node,
          bool lite_nic = false);

  std::unique_ptr<fabric::Machine> machine_;
  std::unique_ptr<nm::Host> host_;
  std::unique_ptr<PcieDevice> nic_;
  std::vector<std::unique_ptr<PcieDevice>> ssds_;
};

}  // namespace numaio::io
