// Figure 3: the 8x8 STREAM-Copy bandwidth matrix of the DL585 host
// (CPUn = threads on node n, MEMn = arrays on node n; best of 100 runs).
// Published anchors: cpu7/mem4 = 21.34 Gbps (above cpu7/mem{2,3});
// cpu4/mem7 = 18.45 Gbps (below cpu{2,3}/mem7); node 0's local binding
// beats every other local binding (OS residency).
#include <cstdio>

#include "bench/common.h"
#include "mem/membench.h"
#include "model/report.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();
  bench::banner("Figure 3: STREAM Copy bandwidth matrix (Gbps)");

  const mem::BandwidthMatrix m = mem::stream_matrix(tb.host());
  std::printf("%s", model::format_matrix(m).c_str());
  std::printf("\n%s", model::format_heatmap(m).c_str());

  std::printf("\n  anchors:            paper   measured\n");
  std::printf("  cpu7 / mem4         21.34   %8.2f\n", m.at(7, 4));
  std::printf("  cpu4 / mem7         18.45   %8.2f\n", m.at(4, 7));
  std::printf("  cpu7 / mem2         <21.34  %8.2f\n", m.at(7, 2));
  std::printf("  cpu2 / mem7         >18.45  %8.2f\n", m.at(2, 7));
  std::printf("  node0 local (best)  ~max    %8.2f\n", m.at(0, 0));
  bench::note("");
  bench::note("the matrix is asymmetric: no hop-distance metric explains it");
  return 0;
}
