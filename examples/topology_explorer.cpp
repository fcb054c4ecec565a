// Topology explorer: what the standard tools can and cannot tell you.
//
// Walks the four Figure-1 Magny-Cours layouts and the paper's host:
// hwloc-style hierarchy (no wiring!), the real interconnect, hop-distance
// matrices, numactl-style policies, and finally the §IV-A failure — the
// measured STREAM matrix of the calibrated host matches none of the
// candidate layouts.
#include <cstdio>

#include "numaio.h"

int main() {
  using namespace numaio;

  // hwloc shows the hierarchy but not the wiring (§II-B).
  const topo::Topology host = topo::dl585_g7();
  std::printf("%s\n", nm::render_hwloc(host).c_str());

  for (char v : {'a', 'b', 'c', 'd'}) {
    const topo::Topology t = topo::magny_cours_4p(v);
    const topo::Routing r(t, topo::Routing::Metric::kHops);
    const topo::Routing r_lat(t, topo::Routing::Metric::kLatency);
    const topo::LatencyModel lat(r_lat, topo::LatencyParams{100.0, 27.0});
    std::printf("layout (%c): diameter %d, mean remote hops %.2f, "
                "NUMA factor %.2f\n",
                v, r.diameter(), r.mean_remote_hops(), lat.numa_factor());
    std::printf("  hop matrix row for node 7:");
    for (topo::NodeId d = 0; d < t.num_nodes(); ++d) {
      std::printf(" %d", r.hop_distance(7, d));
    }
    std::printf("\n");
  }

  // numactl-style policy spellings drive experiment bindings.
  for (const char* spec :
       {"--cpunodebind=7 --membind=3", "--cpunodebind=4 --interleave=0-3",
        "--preferred=2"}) {
    const nm::Policy p = nm::parse_numactl(spec);
    std::printf("policy \"%s\" -> %s\n", spec,
                nm::to_numactl_string(p).c_str());
  }

  // Now the punchline: measure the calibrated host with STREAM and try to
  // recover its wiring.
  fabric::Machine machine{fabric::dl585_profile()};
  nm::Host nmhost{machine};
  const auto bw = mem::stream_matrix(nmhost);
  std::printf("\nmeasured STREAM matrix: asymmetry index %.3f\n",
              model::asymmetry_index(bw));
  for (const auto& fit : model::fit_magny_cours_variants(bw)) {
    std::printf("  candidate %-20s explains %.0f%% of orderings\n",
                fit.variant_name.c_str(), fit.score * 100.0);
  }
  std::printf("\ninferred 'fastest remote neighbor' edges:");
  for (const auto& [a, b] : model::infer_adjacency(bw)) {
    std::printf(" %d-%d%s", a, b,
                host.adjacent(a, b) ? "" : "(!)");
  }
  std::printf("\n(!) = contradicts the nominal wiring: hop distance cannot\n"
              "model this host; use the iomodel methodology instead.\n");
  return 0;
}
