// §III-B1's configuration choice: the four STREAM kernels "exhibit a
// similar performance on modern machines", so the paper characterizes
// with Copy alone (no computation, closest to I/O behaviour). This bench
// regenerates the comparison across representative bindings.
#include <algorithm>
#include <cstdio>

#include "bench/common.h"
#include "mem/stream.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();

  bench::banner("STREAM kernels across bindings (best of 100, Gbps)");
  std::printf("  %-14s %10s %10s %10s %10s %8s\n", "binding", "Copy",
              "Scale", "Add", "Triad", "spread");
  for (const auto& [cpu, mem_node] :
       std::vector<std::pair<topo::NodeId, topo::NodeId>>{
           {0, 0}, {7, 7}, {7, 4}, {4, 7}, {7, 2}}) {
    double values[4];
    int k = 0;
    for (mem::StreamKind kind :
         {mem::StreamKind::kCopy, mem::StreamKind::kScale,
          mem::StreamKind::kAdd, mem::StreamKind::kTriad}) {
      values[k++] =
          mem::StreamBenchmark(tb.host(), kind).run(cpu, mem_node).best;
    }
    const double lo = std::min({values[0], values[1], values[2], values[3]});
    const double hi = std::max({values[0], values[1], values[2], values[3]});
    std::printf("  cpu%d/mem%-5d %10.2f %10.2f %10.2f %10.2f %7.1f%%\n",
                cpu, mem_node, values[0], values[1], values[2], values[3],
                (hi / lo - 1.0) * 100.0);
  }
  bench::note("");
  bench::note("kernel spread stays within a few percent on every binding:");
  bench::note("characterizing with Copy alone loses nothing (§III-B1).");
  return 0;
}
