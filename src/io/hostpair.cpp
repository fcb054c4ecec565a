#include "io/hostpair.h"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "fabric/calibration.h"
#include "simcore/fluid_sim.h"
#include "simcore/status.h"

namespace numaio::io {

namespace {
// 40 GbE line rate after Ethernet framing (MTU 9000 keeps overhead low).
constexpr sim::Gbps kWireGbps = 37.6;
}  // namespace

HostPair::HostPair()
    : machine_(std::make_unique<fabric::Machine>(
          fabric::pair_profile(fabric::dl585_profile()))) {
  host_ = std::make_unique<nm::Host>(*machine_);
  nic_a_ = make_connectx3(*machine_, 7);
  nic_b_ = make_connectx3(*machine_, peer(7), /*residual_origin=*/peer(7));
  auto& solver = machine_->solver();
  wire_ab_ = solver.add_resource(kWireGbps);
  wire_ba_ = solver.add_resource(kWireGbps);
  // Target-side DMA occupancy for one-sided operations: the passive NIC's
  // tag pools (separate RX/TX engines) serve the inbound streams,
  // normalized like engine occupancy.
  target_a_to_mem_ = solver.add_resource(1.0);
  target_a_from_mem_ = solver.add_resource(1.0);
  target_b_to_mem_ = solver.add_resource(1.0);
  target_b_from_mem_ = solver.add_resource(1.0);
}

HostPair HostPair::dl585() { return HostPair(); }

NodeId HostPair::peer(NodeId node) const {
  return node + machine_->num_nodes() / 2;
}

FioResult HostPair::run(const NetJob& job) {
  const NetJob jobs[] = {job};
  return run_concurrent(jobs).front();
}

std::vector<FioResult> HostPair::run_concurrent(
    std::span<const NetJob> jobs) {
  // Nodes index per-node tables that only assert their bound, so every
  // job is checked before any buffer or flow exists.
  const int nodes = machine_->num_nodes() / 2;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const NetJob& job = jobs[j];
    if (complementary_engine(job.engine) == nullptr) {
      throw std::invalid_argument("HostPair: '" + job.engine +
                                  "' is not a network engine");
    }
    if (job.num_streams < 1) {
      throw std::invalid_argument("HostPair: at least one stream");
    }
    const auto check = [&](const char* field, NodeId node) {
      if (node >= 0 && node < nodes) return;
      throw StatusError(StatusCode::kUsage,
                        "HostPair job " + std::to_string(j) + " (" +
                            job.engine + "): " + field + " " +
                            std::to_string(node) +
                            " is outside the host's nodes 0-" +
                            std::to_string(nodes - 1));
    };
    check("local_node", job.local_node);
    check("peer_node", job.peer_node);
  }

  struct StreamSetup {
    std::size_t job_index = 0;
    nm::Buffer buf_a;
    nm::Buffer buf_b;
    sim::FluidSimulation::TransferId transfer = 0;
  };
  std::vector<StreamSetup> setups;

  // Every buffer is placed before any transfer starts, and each stays on
  // its own host: the binding node first, then the host's other nodes.
  // The pair's cross-host coherent paths are near zero, so a buffer on
  // the far host would stall its stream. A host without room frees this
  // run's buffers and throws std::bad_alloc, as FioRunner does.
  const auto alloc_on_host = [&](NodeId node) {
    nm::Policy policy;
    policy.mode = nm::MemMode::kBind;
    policy.mem_nodes.push_back(node);
    const NodeId first = node < nodes ? 0 : nodes;
    for (NodeId n = first; n < first + nodes; ++n) {
      if (n != node) policy.mem_nodes.push_back(n);
    }
    return host_->alloc_with_policy(2 * sim::kMiB, policy, node);
  };
  try {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (int s = 0; s < jobs[j].num_streams; ++s) {
        // Listed before its buffers exist, so the catch frees whatever a
        // failed allocation part-way through has taken.
        StreamSetup& setup = setups.emplace_back();
        setup.job_index = j;
        setup.buf_a = alloc_on_host(jobs[j].local_node);
        setup.buf_b = alloc_on_host(peer(jobs[j].peer_node));
      }
    }
  } catch (...) {
    for (StreamSetup& setup : setups) {
      host_->free(setup.buf_a);
      host_->free(setup.buf_b);
    }
    throw;
  }

  sim::FluidSimulation fluid(machine_->solver());
  std::size_t next = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const NetJob& job = jobs[j];
    const char* peer_name = complementary_engine(job.engine);
    const NodeId b_node = peer(job.peer_node);
    const bool a_sends = nic_a_->engine(job.engine).to_device;
    // One-sided RDMA never schedules the peer's CPU or its initiator
    // engine; the far end only contributes the inbound DMA path (its
    // fabric legs, memory controller, PCIe, and the target-side DMA
    // window). Two-sided TCP chains the full complementary personality.
    const bool one_sided = job.engine.rfind("rdma", 0) == 0;

    for (int s = 0; s < job.num_streams; ++s) {
      StreamSetup& setup = setups[next++];

      StreamSpec spec_a;
      spec_a.device = nic_a_.get();
      spec_a.engine = job.engine;
      spec_a.cpu_node = job.local_node;
      spec_a.mem_node = setup.buf_a.home();
      const StreamShape shape_a = shape_stream(*machine_, spec_a);

      std::vector<sim::Usage> usages = shape_a.usages;
      usages.push_back({a_sends ? wire_ab_ : wire_ba_, 1.0});
      sim::Gbps cap = shape_a.rate_cap;
      if (one_sided) {
        // Target-side DMA: fabric legs + PCIe, plus the passive NIC's
        // shared tag pool (occupancy 1/(window/lat) per Gbps).
        const EngineSpec& spec = nic_a_->engine(job.engine);
        const NodeId b_attach = nic_b_->attach_node();
        const bool to_b_memory = a_sends;  // our write lands in B's memory
        auto b_legs = machine_->dma_usages(setup.buf_b.home(), b_attach,
                                           /*to_device=*/!to_b_memory);
        usages.insert(usages.end(), b_legs.begin(), b_legs.end());
        usages.push_back({nic_b_->pcie_resource(!to_b_memory), 1.0});
        const sim::Ns b_lat =
            to_b_memory
                ? machine_->path(b_attach, setup.buf_b.home()).dma_lat
                : machine_->path(setup.buf_b.home(), b_attach).dma_lat;
        usages.push_back({to_b_memory ? target_b_to_mem_
                                      : target_b_from_mem_,
                          b_lat / spec.window_bits});
      } else {
        StreamSpec spec_b;
        spec_b.device = nic_b_.get();
        spec_b.engine = peer_name;
        spec_b.cpu_node = b_node;
        spec_b.mem_node = setup.buf_b.home();
        const StreamShape shape_b = shape_stream(*machine_, spec_b);
        usages.insert(usages.end(), shape_b.usages.begin(),
                      shape_b.usages.end());
        cap = std::min(cap, shape_b.rate_cap);
      }

      setup.transfer =
          fluid.start_transfer(std::move(usages), job.bytes_per_stream, cap);
    }
  }

  fluid.run();

  std::vector<FioResult> results(jobs.size());
  std::vector<sim::Ns> first(jobs.size(),
                             std::numeric_limits<double>::infinity());
  std::vector<sim::Ns> last(jobs.size(), 0.0);
  std::vector<sim::Bytes> bytes(jobs.size(), 0);
  for (StreamSetup& s : setups) {
    const auto& st = fluid.stats(s.transfer);
    first[s.job_index] = std::min(first[s.job_index], st.start);
    last[s.job_index] = std::max(last[s.job_index], st.end);
    bytes[s.job_index] += st.bytes;
    results[s.job_index].streams.push_back(
        FioStreamStats{s.buf_a.home(), nic_a_.get(), st.avg_rate(),
                       fluid.rate_stability(s.transfer).cv, st.bytes_moved});
    host_->free(s.buf_a);
    host_->free(s.buf_b);
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    results[j].duration = last[j] - first[j];
    results[j].aggregate = results[j].duration > 0.0
                               ? sim::gbps(bytes[j], results[j].duration)
                               : 0.0;
  }
  return results;
}

}  // namespace numaio::io
