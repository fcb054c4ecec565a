// The paper's proposed methodology (§V, Algorithm 1): model a device-
// attached ("target") node's I/O bandwidth character *without touching the
// device*, by imitating its DMA engine with memcpy threads pinned to the
// target node.
//
//   write model: data sinks on the target node, sources vary  (Fig 9a)
//   read model:  data sources on the target node, sinks vary  (Fig 9b)
//
// Per Algorithm 1: m = cores-per-node threads, each copying its own
// src/snk buffer pair 100 times; the *average* aggregate bandwidth is
// recorded per candidate node. Because the copy threads run on the target
// node and stream one way, they traverse exactly the fabric path a device
// DMA engine would — unlike STREAM, whose PIO round trip takes a different
// path (§IV-C).
#pragma once

#include <cstdint>
#include <vector>

#include "nm/host.h"
#include "obs/obs.h"
#include "simcore/status.h"
#include "simcore/units.h"

namespace numaio::model {

using topo::NodeId;

enum class Direction {
  kDeviceWrite,  ///< Host memory -> device: DMA engine reads host memory.
  kDeviceRead,   ///< Device -> host memory: DMA engine writes host memory.
};

/// Per-thread buffer each copy moves per repetition. Like STREAM's arrays
/// it must dwarf the LLC: each copy moves 64 MiB.
inline constexpr sim::Bytes kIoModelBufferBytes = 64 * sim::kMiB;

struct IoModelConfig {
  int repetitions = 100;
  std::uint64_t seed = 20130777;
  /// Optional observability: an `iomodel.build` span wrapping per-node
  /// `iomodel.probe` spans with per-rep events and the estimator choice,
  /// plus the iomodel.* counters. nullptr = silent.
  obs::Context* obs = nullptr;
  /// Parent span for the `iomodel.build` span (e.g. a characterize span).
  obs::SpanId obs_parent = 0;

  /// ok(), or kUsage naming `repetitions` when it is below 1: Algorithm 1
  /// averages at least one repetition per node.
  Status validate() const;
};

struct IoModelResult {
  NodeId target = 0;
  Direction direction = Direction::kDeviceWrite;
  /// bw[i]: robust (trimmed-mean) aggregate bandwidth with the varied end
  /// on node i (source node for the write model, sink node for the read
  /// model).
  std::vector<sim::Gbps> bw;
};

/// Runs Algorithm 1 for one target node and direction. Throws
/// StatusError(kUsage) when config.validate() fails, before any span
/// opens or any buffer is allocated.
IoModelResult build_iomodel(nm::Host& host, NodeId target,
                            Direction direction,
                            const IoModelConfig& config = {});

}  // namespace numaio::model
