// Bring your own machine: define a custom NUMA topology, derive a fabric
// profile from its link widths and latencies, attach a device, and run the
// full methodology on it — the toolkit is not tied to the paper's host.
//
// The example machine: a 2-socket, 4-node host ("two Magny-Cours
// packages") with an I/O hub on node 3 and deliberately narrow (4-bit)
// cross links from package 0, so the derived fabric has a genuinely
// weaker class that even shows through the device ceiling.
#include <cstdio>

#include "numaio.h"

int main() {
  using namespace numaio;

  // 1. Describe the hardware.
  std::vector<topo::NodeSpec> nodes{
      {0, 4, 8.0, false}, {0, 4, 8.0, false},
      {1, 4, 8.0, false}, {1, 4, 8.0, true},  // I/O hub on node 3
  };
  std::vector<topo::LinkSpec> links{
      {0, 1, 16, 16, 50.0},   // intra package 0
      {2, 3, 16, 16, 50.0},   // intra package 1
      {0, 3, 4, 16, 120.0},   // cross links: 4-bit toward node 3
      {1, 2, 4, 16, 120.0},
  };
  const topo::Topology topo =
      topo::Topology::build("custom-2p4n", std::move(nodes),
                            std::move(links));
  std::printf("%s\n", nm::render_hwloc(topo).c_str());
  std::printf("%s\n", nm::render_interconnect(topo).c_str());

  // 2. Derive the fabric character from the wiring (no calibration data).
  fabric::Machine machine{fabric::derived_profile(topo)};
  nm::Host host{machine};

  // 3. Run the methodology against the I/O-hub node.
  const topo::NodeId target = 3;
  const auto write_model =
      model::build_iomodel(host, target, model::Direction::kDeviceWrite);
  std::printf("device-write model of node %d:", target);
  for (double v : write_model.bw) std::printf(" %.1f", v);
  std::printf(" Gbps\n");

  const auto classes = model::classify(write_model, topo);
  for (int c = 0; c < classes.num_classes(); ++c) {
    std::printf("  class %d: {", c + 1);
    for (topo::NodeId v : classes.classes[static_cast<std::size_t>(c)]) {
      std::printf(" %d", v);
    }
    std::printf(" } avg %.1f Gbps\n",
                classes.class_avg[static_cast<std::size_t>(c)]);
  }

  // 4. Attach a NIC to the hub node and verify the class split shows up in
  //    real transfers.
  auto nic = io::make_connectx3(machine, target);
  io::FioRunner fio(host);
  std::printf("RDMA_WRITE per binding:");
  for (topo::NodeId node = 0; node < topo.num_nodes(); ++node) {
    io::FioJob j;
    j.devices = {nic.get()};
    j.engine = io::kRdmaWrite;
    j.cpu_node = node;
    j.num_streams = 4;
    std::printf(" node%d=%.1f", node, fio.run(j).aggregate);
  }
  std::printf(" Gbps\n");
  std::printf("\nthe 4-bit links toward node 3 put package 0 in a slower\n"
              "class for writes, and the model predicted it without\n"
              "touching the device.\n");
  return 0;
}
