#include "mem/membench.h"

namespace numaio::mem {

BandwidthMatrix stream_matrix(nm::Host& host) {
  const int n = host.num_configured_nodes();
  StreamBenchmark bench(host);
  BandwidthMatrix m;
  m.bw.assign(static_cast<std::size_t>(n),
              std::vector<sim::Gbps>(static_cast<std::size_t>(n), 0.0));
  for (NodeId cpu = 0; cpu < n; ++cpu) {
    for (NodeId mem = 0; mem < n; ++mem) {
      m.bw[static_cast<std::size_t>(cpu)][static_cast<std::size_t>(mem)] =
          bench.run(cpu, mem).best;
    }
  }
  return m;
}

std::vector<sim::Gbps> cpu_centric(nm::Host& host, NodeId target) {
  const int n = host.num_configured_nodes();
  StreamBenchmark bench(host);
  std::vector<sim::Gbps> out(static_cast<std::size_t>(n), 0.0);
  for (NodeId mem = 0; mem < n; ++mem) {
    out[static_cast<std::size_t>(mem)] = bench.run(target, mem).best;
  }
  return out;
}

std::vector<sim::Gbps> memory_centric(nm::Host& host, NodeId target) {
  const int n = host.num_configured_nodes();
  StreamBenchmark bench(host);
  std::vector<sim::Gbps> out(static_cast<std::size_t>(n), 0.0);
  for (NodeId cpu = 0; cpu < n; ++cpu) {
    out[static_cast<std::size_t>(cpu)] = bench.run(cpu, target).best;
  }
  return out;
}

}  // namespace numaio::mem
