// HostPair: both ends of the paper's network testbed simulated in one
// resource network (Fig 2: "Another identical host is used in the network
// performance test").
//
// The single-host FioRunner assumes an optimally placed peer (see
// io::Testbed); HostPair is the model of a bound one. Host B's fabric,
// memory controllers and CPUs live in the same solver, each stream chains
// the send-side NIC engine, the 40 GbE wire, and the receive-side NIC
// engine, and contention composes end to end — full duplex included.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "io/fio.h"
#include "io/nic.h"

namespace numaio::io {

class HostPair {
 public:
  /// Two calibrated DL585s, NICs on node 7 of each, wired back to back.
  static HostPair dl585();

  fabric::Machine& machine() { return *machine_; }
  nm::Host& host() { return *host_; }
  const PcieDevice& nic_a() const { return *nic_a_; }
  const PcieDevice& nic_b() const { return *nic_b_; }

  /// Host B's node `node` in the pair numbering.
  NodeId peer(NodeId node) const;

  /// One directed network job with explicit bindings on both ends.
  /// `engine` names the host-A-side personality; host B automatically
  /// runs the complementary one.
  struct NetJob {
    std::string engine = kTcpSend;
    NodeId local_node = 0;  ///< Binding on host A.
    NodeId peer_node = 0;   ///< Binding on host B (B-local numbering).
    int num_streams = 1;
    sim::Bytes bytes_per_stream = 400 * sim::kGiB;
  };

  /// Runs one job alone.
  FioResult run(const NetJob& job);

  /// Runs jobs concurrently (e.g. full-duplex: a send job and a receive
  /// job at once). Results indexed like `jobs`. Every job is checked
  /// before any buffer or flow exists: std::invalid_argument for a
  /// non-network engine or no stream, StatusError(kUsage) naming the job
  /// and the field for a local_node or peer_node outside nodes 0-7.
  /// Each stream's 2 MiB buffer at each end goes on its binding node, or
  /// else on another node of the same host; when a host has no room the
  /// run frees its buffers, starts no flow and throws std::bad_alloc.
  std::vector<FioResult> run_concurrent(std::span<const NetJob> jobs);

 private:
  HostPair();

  std::unique_ptr<fabric::Machine> machine_;
  std::unique_ptr<nm::Host> host_;
  std::unique_ptr<PcieDevice> nic_a_;
  std::unique_ptr<PcieDevice> nic_b_;
  sim::ResourceId wire_ab_ = 0;
  sim::ResourceId wire_ba_ = 0;
  /// Target-side DMA tag pools, one per NIC and direction (RX and TX
  /// engines are separate silicon).
  sim::ResourceId target_a_to_mem_ = 0;
  sim::ResourceId target_a_from_mem_ = 0;
  sim::ResourceId target_b_to_mem_ = 0;
  sim::ResourceId target_b_from_mem_ = 0;
};

}  // namespace numaio::io
