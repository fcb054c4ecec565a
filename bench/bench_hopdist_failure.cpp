// §IV-A/§IV-B analysis: hop distance and STREAM fail to predict I/O.
//  1. Hop-distance explanation scores of the measured STREAM matrix
//     against every Figure-1 layout (all poor; matrix asymmetric).
//  2. Rank correlations: proposed memcpy model vs each I/O engine, against
//     the STREAM-derived CPU-/memory-centric models.
#include <cstdio>

#include "bench/common.h"
#include "mem/membench.h"
#include "model/analysis.h"
#include "model/inference.h"
#include "model/iomodel.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();

  bench::banner("Hop-distance failure on the measured STREAM matrix");
  const auto bw = mem::stream_matrix(tb.host());
  std::printf("  asymmetry index: %.3f (undirected metrics need ~0)\n",
              model::asymmetry_index(bw));
  for (const auto& fit : model::fit_magny_cours_variants(bw)) {
    std::printf("  layout %-20s hop-explanation score %.3f\n",
                fit.variant_name.c_str(), fit.score);
  }
  bench::note("no layout reaches ~1.0: hop distance cannot explain Fig 3");

  bench::banner("Rank agreement with measured I/O (Spearman)");
  const auto cpu_model = mem::cpu_centric(tb.host(), 7);
  const auto mem_model = mem::memory_centric(tb.host(), 7);
  const auto wmodel =
      model::build_iomodel(tb.host(), 7, model::Direction::kDeviceWrite);
  const auto rmodel =
      model::build_iomodel(tb.host(), 7, model::Direction::kDeviceRead);

  std::printf("  %-12s %10s %12s %12s\n", "engine", "proposed",
              "CPU-centric", "mem-centric");
  struct Case {
    const char* engine;
    const std::vector<double>* proposed;
  };
  const Case cases[] = {{io::kTcpSend, &wmodel.bw},
                        {io::kRdmaWrite, &wmodel.bw},
                        {io::kSsdWrite, &wmodel.bw},
                        {io::kTcpRecv, &rmodel.bw},
                        {io::kRdmaRead, &rmodel.bw},
                        {io::kSsdRead, &rmodel.bw}};
  for (const Case& c : cases) {
    const auto io = bench::sweep_nodes(tb, c.engine, 4);
    std::printf("  %-12s %10.2f %12.2f %12.2f\n", c.engine,
                model::spearman(*c.proposed, io),
                model::spearman(cpu_model, io),
                model::spearman(mem_model, io));
  }
  bench::note("");
  bench::note("RDMA_READ/SSD read: proposed model high, STREAM models low");
  bench::note("or negative -- the paper's §IV-B2 mismatch, quantified.");
  return 0;
}
