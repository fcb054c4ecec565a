// Figure 4: STREAM-derived bandwidth models of node 7.
//   (a) CPU centric:    benchmark on node 7, data on node i
//   (b) memory centric: data on node 7, benchmark on node i
// §IV-B2 quotes these models ranking {0,1} above {2,3} by 43%-88% —
// the ordering RDMA_READ later inverts.
#include <cstdio>

#include "bench/common.h"
#include "mem/membench.h"
#include "model/report.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();
  bench::banner("Figure 4: CPU-centric and memory-centric models of node 7");

  const auto cpu = mem::cpu_centric(tb.host(), 7);
  const auto mem = mem::memory_centric(tb.host(), 7);
  bench::print_node_header(8);
  bench::print_series("CPU centric", cpu);
  bench::print_series("mem centric", mem);

  const double cpu_ratio = (cpu[0] + cpu[1]) / (cpu[2] + cpu[3]);
  const double mem_ratio = (mem[0] + mem[1]) / (mem[2] + mem[3]);
  std::printf("\n  {0,1} over {2,3}:   paper      measured\n");
  std::printf("  CPU centric         +88%%       %+.0f%%\n",
              (cpu_ratio - 1.0) * 100.0);
  std::printf("  memory centric      +43%%       %+.0f%%\n",
              (mem_ratio - 1.0) * 100.0);
  return 0;
}
