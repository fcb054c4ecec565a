// Extension: the full two-host model (both DL585s simulated end to end).
// Regenerates the both-ends binding effect with real chained resources
// and adds the full-duplex scenario: simultaneous send + receive sharing
// host CPUs and fabric but not the wire.
#include <cstdio>

#include "bench/common.h"
#include "io/hostpair.h"

int main() {
  using namespace numaio;
  io::HostPair pair = io::HostPair::dl585();

  bench::banner("Two-host RDMA_WRITE: initiator binding x target memory");
  std::printf("  %-10s", "A\\B-mem");
  for (int b = 0; b < 8; ++b) std::printf("   peer%d", b);
  std::printf("\n");
  for (topo::NodeId a : {5, 2, 7}) {
    std::printf("  node%-6d", a);
    for (int b = 0; b < 8; ++b) {
      io::HostPair::NetJob j;
      j.engine = io::kRdmaWrite;
      j.local_node = a;
      j.peer_node = b;
      j.num_streams = 4;
      std::printf(" %7.2f", pair.run(j).aggregate);
    }
    std::printf("\n");
  }
  bench::note("rows: initiator classes (17.1 from {2,3}); columns: the");
  bench::note("TARGET host's inbound 7->i paths -- Table V's directional");
  bench::note("asymmetry reappears on the passive side.");

  bench::banner("Full duplex (A<->B, both bindings node 6)");
  io::HostPair::NetJob send;
  send.engine = io::kRdmaWrite;
  send.local_node = 6;
  send.peer_node = 6;
  send.num_streams = 4;
  io::HostPair::NetJob recv = send;
  recv.engine = io::kRdmaRead;
  {
    const auto half_send = pair.run(send).aggregate;
    const auto half_recv = pair.run(recv).aggregate;
    const auto both = pair.run_concurrent(
        std::vector<io::HostPair::NetJob>{send, recv});
    std::printf("  RDMA  send alone %.2f, read alone %.2f, duplex %.2f + "
                "%.2f Gbps\n",
                half_send, half_recv, both[0].aggregate,
                both[1].aggregate);
  }
  send.engine = io::kTcpSend;
  recv.engine = io::kTcpRecv;
  {
    const auto half_send = pair.run(send).aggregate;
    const auto half_recv = pair.run(recv).aggregate;
    const auto both = pair.run_concurrent(
        std::vector<io::HostPair::NetJob>{send, recv});
    std::printf("  TCP   send alone %.2f, recv alone %.2f, duplex %.2f + "
                "%.2f Gbps\n",
                half_send, half_recv, both[0].aggregate,
                both[1].aggregate);
  }
  bench::note("");
  bench::note("offloaded RDMA keeps both directions at full rate; TCP's");
  bench::note("duplex sum collapses to the binding node's CPU budget --");
  bench::note("the locality-vs-contention tradeoff in one line.");
  return 0;
}
