// Extension: buffer interleaving as a placement-free mitigation. When a
// task cannot be rebound (§V-B's scheduler assumes it can), interleaving
// its buffers spreads the DMA traffic over the classes, lifting the worst
// bindings toward the mean at the cost of the best ones.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();
  io::FioRunner fio(tb.host());

  for (const char* engine : {io::kRdmaRead, io::kSsdWrite}) {
    bench::banner(std::string("Buffer policy vs binding: ") + engine +
                  " (Gbps)");
    std::printf("  %-10s %12s %14s %14s\n", "binding", "local bufs",
                "interleave all", "membind best");
    for (topo::NodeId node = 0; node < 8; ++node) {
      io::FioJob j;
      j.devices = tb.devices().for_engine(engine);
      j.engine = engine;
      j.cpu_node = node;
      j.num_streams = 4;
      const double local = fio.run(j).aggregate;
      j.mem_policy = nm::parse_numactl("--interleave=0-7");
      const double spread = fio.run(j).aggregate;
      j.mem_policy = nm::parse_numactl("--membind=6");
      const double best = fio.run(j).aggregate;
      std::printf("  node%-6d %12.2f %14.2f %14.2f\n", node, local, spread,
                  best);
    }
  }
  bench::note("");
  bench::note("interleaving flattens the class structure (worst bindings");
  bench::note("rise, best fall toward the harmonic mean); an explicit");
  bench::note("membind to a class-1 node recovers the full rate without");
  bench::note("moving the process.");
  return 0;
}
