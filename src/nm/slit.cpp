#include "nm/slit.h"

#include <iomanip>
#include <sstream>

namespace numaio::nm {

std::vector<std::vector<int>> slit_table(const topo::Topology& topo) {
  const topo::Routing routing(topo, topo::Routing::Metric::kHops);
  const int n = topo.num_nodes();
  std::vector<std::vector<int>> slit(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), 10));
  for (topo::NodeId a = 0; a < n; ++a) {
    for (topo::NodeId b = 0; b < n; ++b) {
      slit[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          10 + 10 * routing.hop_distance(a, b);
    }
  }
  return slit;
}

std::string render_slit(const std::vector<std::vector<int>>& slit) {
  std::ostringstream out;
  const std::size_t n = slit.size();
  out << "node distances:\n" << "node ";
  for (std::size_t b = 0; b < n; ++b) out << std::setw(4) << b;
  out << '\n';
  for (std::size_t a = 0; a < n; ++a) {
    out << std::setw(4) << a << ':';
    for (std::size_t b = 0; b < n; ++b) out << std::setw(4) << slit[a][b];
    out << '\n';
  }
  return out.str();
}

}  // namespace numaio::nm
