// numademo-style memory test modules (§II-B).
//
// The Linux numademo utility "shows the effect of possible resource
// affinity policies" with seven test modules (memset, memcpy, STREAM,
// forward/backward strides, random access, ...). The paper's contribution
// ships as an *eighth* module, iomodel, added "to the standard numademo
// software package" (§V-B) — model::build_iomodel here.
//
// Each module exercises the fabric differently:
//   kMemset        store-only; no load leg.
//   kMemcpy        PIO copy loop (load + posted store).
//   kStreamCopy    the STREAM Copy kernel (mem/stream.h protocol).
//   kForwardWalk   sequential loads; prefetch-friendly (full PIO rate).
//   kBackwardWalk  reverse loads; prefetcher partially defeated.
//   kRandomAccess  dependent random loads; latency-bound, not
//                  bandwidth-bound — scales with 1/latency, not with the
//                  PIO issue window.
//   kPtrChase      fully serialized pointer chase; one outstanding load.
#pragma once

#include <string>
#include <vector>

#include "nm/host.h"

namespace numaio::mem {

using topo::NodeId;

enum class DemoModule {
  kMemset,
  kMemcpy,
  kStreamCopy,
  kForwardWalk,
  kBackwardWalk,
  kRandomAccess,
  kPtrChase,
};

std::string to_string(DemoModule module);

/// All seven modules, in numademo's order.
std::vector<DemoModule> all_demo_modules();

struct DemoResult {
  DemoModule module = DemoModule::kMemset;
  NodeId cpu_node = 0;
  NodeId mem_node = 0;
  sim::Gbps bandwidth = 0.0;  ///< Effective data rate of the access loop.
};

/// Runs one module with one thread per core of cpu_node against a 64 MiB
/// working set on mem_node.
DemoResult run_demo(nm::Host& host, DemoModule module, NodeId cpu_node,
                    NodeId mem_node);

/// numademo's headline table: every module against the local node, a
/// remote node, and interleaved memory, for a given executing node.
/// Returns rows of (module, local, remote-worst, interleaved) bandwidths.
struct DemoTableRow {
  DemoModule module;
  sim::Gbps local = 0.0;
  sim::Gbps remote_worst = 0.0;
  sim::Gbps interleaved = 0.0;
};
std::vector<DemoTableRow> demo_policy_table(nm::Host& host, NodeId cpu_node);

}  // namespace numaio::mem
