// Extension: sender x receiver binding grid for TCP across the host pair.
// The paper's Fig 5 varies one side at a time; [3] (cited in §I) reports
// that placement on remote cores at *either* end can cost ~30% of TCP
// bandwidth. Both hosts are simulated end to end (io::HostPair), and the
// grid shows both effects and their composition: the transfer runs at
// the minimum of what each side's binding supports.
#include <cstdio>

#include "bench/common.h"
#include "io/hostpair.h"

int main() {
  using namespace numaio;
  io::HostPair pair = io::HostPair::dl585();

  bench::banner("TCP send: local binding x peer (receiver) binding (Gbps)");
  std::printf("  %-10s", "send\\recv");
  for (int peer = 0; peer < 8; ++peer) std::printf("   peer%d", peer);
  std::printf("\n");
  double diag_best = 0.0, grid_worst = 1e9;
  for (topo::NodeId node = 0; node < 8; ++node) {
    std::printf("  node%-6d", node);
    for (int peer = 0; peer < 8; ++peer) {
      io::HostPair::NetJob j;
      j.engine = io::kTcpSend;
      j.local_node = node;
      j.peer_node = peer;
      j.num_streams = 4;
      const double agg = pair.run(j).aggregate;
      diag_best = std::max(diag_best, agg);
      grid_worst = std::min(grid_worst, agg);
      std::printf(" %7.2f", agg);
    }
    std::printf("\n");
  }
  std::printf("\n  best %.2f, worst %.2f: worst-case loss %.0f%% "
              "(paper cites ~30%% for one bad end)\n",
              diag_best, grid_worst,
              (diag_best - grid_worst) / diag_best * 100.0);
  bench::note("rows show the send-side classes; columns overlay the");
  bench::note("receive-side classes of the identical peer host.");
  return 0;
}
