// Extension (the paper's second future-work direction, §VI): automatic
// asymmetry diagnosis. The iomodel's two sweeps around the device node
// give both directions of every path touching it; scanning the resulting
// matrix pinpoints the directed pairs behind §IV-A's anomalies — without
// knowing the wiring and without touching a device.
#include <cstdio>

#include "bench/common.h"
#include "mem/membench.h"
#include "model/asymmetry.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();

  bench::banner("Directional asymmetries around node 7 (iomodel matrix)");
  const auto m = model::iomodel_matrix(tb.host(), 7);
  for (const auto& line :
       model::describe(model::find_asymmetric_pairs(m, 1.15))) {
    std::printf("  %s\n", line.c_str());
  }

  bench::banner("Directional asymmetries in the STREAM (PIO) matrix");
  const auto bw = mem::stream_matrix(tb.host());
  const auto pairs = model::find_asymmetric_pairs(bw, 1.10);
  std::printf("  %zu PIO pairs above 1.10x; top finds:\n", pairs.size());
  int shown = 0;
  for (const auto& line : model::describe(pairs)) {
    std::printf("  %s\n", line.c_str());
    if (++shown == 5) break;
  }
  bench::note("");
  bench::note("the DMA-side finds ({2,3}<->{6,7}, {6,7}->4) are the paths");
  bench::note("behind Tables IV/V's weak classes; the PIO-side finds are");
  bench::note("Fig 3's 21.34-vs-18.45 anomaly and friends (§IV-A).");
  return 0;
}
