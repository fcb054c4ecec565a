// The LSI Nytro WarpDrive WLP4-200 PCIe SSD of the paper's testbed
// (Table II). The paper drives *two* cards simultaneously with libaio in
// kernel-bypass mode (iodepth 16, 128 KB blocks) and reports the combined
// bandwidth, so experiments use make_nytro_pair().
//
// Calibration targets (aggregate over both cards, Tables IV/V):
//   SSD write: 28.8 / 28.5 / 18.0 Gbps across classes {6,7}/{0,1,4,5}/{2,3}
//   SSD read:  34.7 / 33.1 / 30.1 / 18.5 across {6,7}/{2,3}/{0,1,5}/{4}
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "io/device.h"

namespace numaio::io {

inline constexpr char kSsdWrite[] = "ssd_write";
inline constexpr char kSsdRead[] = "ssd_read";

/// True for the engines the SSD cards serve; the NIC serves the rest.
inline bool is_ssd_engine(std::string_view engine) {
  return engine == kSsdWrite || engine == kSsdRead;
}

/// One Nytro WarpDrive card attached to `node`. `index` distinguishes the
/// two cards' resource names.
std::unique_ptr<PcieDevice> make_nytro_warpdrive(fabric::Machine& machine,
                                                 NodeId node, int index);

/// The testbed's pair of cards, both on `node`.
std::vector<std::unique_ptr<PcieDevice>> make_nytro_pair(
    fabric::Machine& machine, NodeId node);

}  // namespace numaio::io
