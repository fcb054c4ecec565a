#include "mem/numademo.h"

#include <algorithm>
#include <cassert>

#include "mem/copy.h"

namespace numaio::mem {

std::string to_string(DemoModule module) {
  switch (module) {
    case DemoModule::kMemset:
      return "memset";
    case DemoModule::kMemcpy:
      return "memcpy";
    case DemoModule::kStreamCopy:
      return "stream-copy";
    case DemoModule::kForwardWalk:
      return "forward-walk";
    case DemoModule::kBackwardWalk:
      return "backward-walk";
    case DemoModule::kRandomAccess:
      return "random-access";
    case DemoModule::kPtrChase:
      return "ptr-chase";
  }
  return "?";
}

std::vector<DemoModule> all_demo_modules() {
  return {DemoModule::kMemset,       DemoModule::kMemcpy,
          DemoModule::kStreamCopy,   DemoModule::kForwardWalk,
          DemoModule::kBackwardWalk, DemoModule::kRandomAccess,
          DemoModule::kPtrChase};
}

namespace {

/// Working set each run binds to its memory node, as numademo allocates
/// one before it times a module.
constexpr sim::Bytes kDemoWorkingSet = 64 * sim::kMiB;

/// Aggregate PIO load bandwidth of the whole node over path (t, m).
double load_leg(const fabric::Machine& machine, NodeId t, NodeId m) {
  return machine.path(t, m).stream_bw * (1.0 + kPioStoreFactor);
}

/// Rate cap of the module's access loop, one thread per core of t,
/// before fabric capacities.
double module_rate_cap(const fabric::Machine& machine, DemoModule module,
                       NodeId t, NodeId m) {
  const int threads = machine.cores_per_node(t);
  const double leg = load_leg(machine, t, m);
  const sim::Ns lat = machine.path(t, m).dma_lat;
  switch (module) {
    case DemoModule::kMemset:
      // Posted stores only: each store costs a kPioStoreFactor share of
      // the issue budget, so the byte rate is leg / kPioStoreFactor
      // (fabric capacities clamp it below).
      return leg / kPioStoreFactor;
    case DemoModule::kMemcpy:
    case DemoModule::kStreamCopy:
      // Load + posted store against the same node.
      return leg / (1.0 + kPioStoreFactor);
    case DemoModule::kForwardWalk:
      return leg;
    case DemoModule::kBackwardWalk:
      // The stride prefetcher recovers only part of the forward rate.
      return leg * 0.75;
    case DemoModule::kRandomAccess:
      // Independent dependent-load chains per core: latency-bound, with a
      // couple of misses overlapped by out-of-order execution.
      return threads * 2.0 * 512.0 / lat;
    case DemoModule::kPtrChase:
      // One serialized 64 B load in flight per thread.
      return threads * 512.0 / lat;
  }
  return 0.0;
}

/// Fabric usages of the module's loop.
std::vector<sim::Usage> module_usages(const fabric::Machine& machine,
                                      DemoModule module, NodeId t,
                                      NodeId m) {
  std::vector<sim::Usage> usages;
  const bool loads = module != DemoModule::kMemset;
  const bool stores = module == DemoModule::kMemset ||
                      module == DemoModule::kMemcpy ||
                      module == DemoModule::kStreamCopy;
  if (loads) {
    usages.push_back({machine.mc_read(m), 1.0});
    if (t != m) usages.push_back({machine.fabric_resource(m, t), 1.0});
  }
  if (stores) {
    if (t != m) usages.push_back({machine.fabric_resource(t, m), 1.0});
    usages.push_back({machine.mc_write(m), 1.0});
  }
  return usages;
}

double run_rate(fabric::Machine& machine, DemoModule module, NodeId t,
                NodeId m) {
  auto& solver = machine.solver();
  const auto usages = module_usages(machine, module, t, m);
  const double cap = module_rate_cap(machine, module, t, m);
  const sim::FlowId flow = solver.add_flow(usages, cap);
  const double rate = solver.solve()[flow];
  solver.remove_flow(flow);
  return rate;
}

}  // namespace

DemoResult run_demo(nm::Host& host, DemoModule module, NodeId cpu_node,
                    NodeId mem_node) {
  fabric::Machine& machine = host.machine();

  // Touch the allocator so policies and accounting behave like the real
  // tool (working set bound to mem_node).
  nm::Buffer buffer = host.alloc_on_node(kDemoWorkingSet, mem_node);
  DemoResult result;
  result.module = module;
  result.cpu_node = cpu_node;
  result.mem_node = mem_node;
  result.bandwidth = run_rate(machine, module, cpu_node, mem_node);
  host.free(buffer);
  return result;
}

std::vector<DemoTableRow> demo_policy_table(nm::Host& host, NodeId cpu_node) {
  fabric::Machine& machine = host.machine();
  const int n = host.num_configured_nodes();

  std::vector<DemoTableRow> rows;
  for (DemoModule module : all_demo_modules()) {
    DemoTableRow row;
    row.module = module;
    row.local = run_rate(machine, module, cpu_node, cpu_node);
    row.remote_worst = row.local;
    for (NodeId m = 0; m < n; ++m) {
      if (m == cpu_node) continue;
      row.remote_worst = std::min(
          row.remote_worst, run_rate(machine, module, cpu_node, m));
    }
    // Interleaved pages are touched round-robin: the loop spends
    // 1/rate_m time per byte on node m, so the aggregate is the harmonic
    // mean across nodes.
    nm::Buffer buffer = host.alloc_interleaved(kDemoWorkingSet);
    double denom = 0.0;
    for (NodeId m = 0; m < n; ++m) {
      denom += 1.0 / run_rate(machine, module, cpu_node, m);
    }
    row.interleaved = static_cast<double>(n) / denom;
    host.free(buffer);
    rows.push_back(row);
  }
  return rows;
}

}  // namespace numaio::mem
