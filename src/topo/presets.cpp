#include "topo/presets.h"

#include <stdexcept>

namespace numaio::topo {

namespace {

constexpr double kWide = 16.0;    // ganged HT link width (bits)
constexpr double kNarrow = 8.0;   // unganged HT link width (bits)

std::vector<NodeSpec> magny_cours_nodes(bool io_hubs) {
  std::vector<NodeSpec> nodes(8);
  for (int i = 0; i < 8; ++i) {
    nodes[static_cast<std::size_t>(i)] =
        NodeSpec{/*package=*/i / 2, /*cores=*/4, /*memory_gb=*/4.0,
                 /*io_hub=*/false};
  }
  if (io_hubs) {
    // The DL585 G7 carries two SR5690 I/O hubs; the paper attaches all
    // benchmarked PCIe devices to node 7's hub.
    nodes[1].io_hub = true;
    nodes[7].io_hub = true;
  }
  return nodes;
}

LinkSpec intra(NodeId a, NodeId b, sim::Ns lat) {
  return LinkSpec{a, b, kWide, kWide, lat};
}

LinkSpec inter(NodeId a, NodeId b, sim::Ns lat) {
  return LinkSpec{a, b, kNarrow, kNarrow, lat};
}

std::vector<LinkSpec> magny_cours_links(char variant, sim::Ns intra_lat,
                                        sim::Ns inter_lat) {
  std::vector<LinkSpec> links{
      intra(0, 1, intra_lat), intra(2, 3, intra_lat),
      intra(4, 5, intra_lat), intra(6, 7, intra_lat)};
  switch (variant) {
    case 'a':
      // Cross layout: each odd die links to the even dies of the other
      // packages (so e.g. node 7 is one hop from {0,2,4} and two hops from
      // {1,3,5} — the worked example of §II-A).
      for (const auto& [o, evens] :
           std::vector<std::pair<NodeId, std::vector<NodeId>>>{
               {1, {2, 4, 6}}, {3, {0, 4, 6}}, {5, {0, 2, 6}}, {7, {0, 2, 4}}}) {
        for (NodeId e : evens) links.push_back(inter(o, e, inter_lat));
      }
      break;
    case 'b':
      // Dual-ring layout: even dies form one ring, odd dies the other.
      links.push_back(inter(0, 2, inter_lat));
      links.push_back(inter(2, 4, inter_lat));
      links.push_back(inter(4, 6, inter_lat));
      links.push_back(inter(0, 6, inter_lat));
      links.push_back(inter(1, 3, inter_lat));
      links.push_back(inter(3, 5, inter_lat));
      links.push_back(inter(5, 7, inter_lat));
      links.push_back(inter(1, 7, inter_lat));
      break;
    case 'c':
      // Hub layout: even dies fully connected; odd dies reach the fabric
      // only through their package peer.
      links.push_back(inter(0, 2, inter_lat));
      links.push_back(inter(0, 4, inter_lat));
      links.push_back(inter(0, 6, inter_lat));
      links.push_back(inter(2, 4, inter_lat));
      links.push_back(inter(2, 6, inter_lat));
      links.push_back(inter(4, 6, inter_lat));
      break;
    case 'd':
      // Twisted-ladder layout (the variant of [3]): even ring plus
      // diagonal spokes from the odd dies.
      links.push_back(inter(0, 2, inter_lat));
      links.push_back(inter(2, 4, inter_lat));
      links.push_back(inter(4, 6, inter_lat));
      links.push_back(inter(0, 6, inter_lat));
      links.push_back(inter(1, 4, inter_lat));
      links.push_back(inter(3, 6, inter_lat));
      links.push_back(inter(5, 0, inter_lat));
      links.push_back(inter(7, 2, inter_lat));
      break;
    default:
      throw std::invalid_argument("magny_cours_4p: variant must be 'a'..'d'");
  }
  return links;
}

}  // namespace

Topology magny_cours_4p(char variant) {
  return Topology::build(std::string("magny-cours-4p-") + variant,
                         magny_cours_nodes(/*io_hubs=*/false),
                         magny_cours_links(variant, /*intra=*/50.0,
                                           /*inter=*/120.0));
}

Topology dl585_g7() {
  return Topology::build("hp-dl585-g7",
                         magny_cours_nodes(/*io_hubs=*/true),
                         magny_cours_links('a', /*intra=*/50.0,
                                           /*inter=*/120.0));
}

ServerPreset intel_4socket_4node() {
  // Four fully-connected sockets (QPI-style). Remote = one hop everywhere:
  // 100 ns local + 40 ns link + 10 ns router = 150 ns -> factor 1.50.
  std::vector<NodeSpec> nodes(4);
  for (int i = 0; i < 4; ++i) {
    nodes[static_cast<std::size_t>(i)] = NodeSpec{i, 8, 8.0, i == 0};
  }
  std::vector<LinkSpec> links;
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) {
      links.push_back(LinkSpec{a, b, kWide, kWide, 40.0});
    }
  }
  return ServerPreset{"Intel 4 sockets/4 nodes",
                      Topology::build("intel-4s4n", std::move(nodes),
                                      std::move(links)),
                      LatencyParams{100.0, 10.0}, 1.5};
}

ServerPreset amd_4socket_8node() {
  // Figure-1(a) wiring. Mean remote extra over the 7 destinations
  // = (4*intra + 6*inter + 10*router)/7 = (4*50 + 6*120 + 10*27)/7
  // = 170 ns -> factor (100+170)/100 = 2.70.
  return ServerPreset{"AMD 4 sockets/8 nodes", magny_cours_4p('a'),
                      LatencyParams{100.0, 27.0}, 2.7};
}

ServerPreset amd_8socket_8node() {
  // Eight single-die sockets: ring 0-..-7 plus chords i..i+4. Every node
  // sees 3 destinations at one hop and 4 at two, mean 11/7 hops; with
  // 95 ns links and 20 ns router the mean remote extra is
  // 11*(95+20)/7 = 180.7 ns -> factor 2.81.
  std::vector<NodeSpec> nodes(8);
  for (int i = 0; i < 8; ++i) {
    nodes[static_cast<std::size_t>(i)] = NodeSpec{i, 4, 4.0, i == 7};
  }
  std::vector<LinkSpec> links;
  for (NodeId i = 0; i < 8; ++i) {
    links.push_back(LinkSpec{i, (i + 1) % 8, kNarrow, kNarrow, 95.0});
  }
  for (NodeId i = 0; i < 4; ++i) {
    links.push_back(LinkSpec{i, i + 4, kNarrow, kNarrow, 95.0});
  }
  return ServerPreset{"AMD 8 sockets/8 nodes",
                      Topology::build("amd-8s8n", std::move(nodes),
                                      std::move(links)),
                      LatencyParams{100.0, 20.0}, 2.8};
}

ServerPreset hp_blade_32node() {
  // Eight 4-node blades; blades joined in a ring through gateway nodes
  // (node 4*b on blade b). Intra-blade links are fast and fully connected;
  // blade-to-blade hops cross a backplane with much higher latency —
  // which is what pushes the factor to 5.5 on the real system.
  std::vector<NodeSpec> nodes(32);
  for (int i = 0; i < 32; ++i) {
    nodes[static_cast<std::size_t>(i)] = NodeSpec{i / 4, 4, 4.0, i == 0};
  }
  std::vector<LinkSpec> links;
  for (int b = 0; b < 8; ++b) {
    const NodeId base = 4 * b;
    for (NodeId a = 0; a < 4; ++a) {
      for (NodeId c = a + 1; c < 4; ++c) {
        links.push_back(LinkSpec{base + a, base + c, kNarrow, kNarrow, 30.0});
      }
    }
  }
  for (int b = 0; b < 8; ++b) {
    const NodeId g = 4 * b;
    const NodeId next = 4 * ((b + 1) % 8);
    links.push_back(LinkSpec{g, next, kNarrow, kNarrow, 180.0});
  }
  return ServerPreset{"HP blade system 32 nodes",
                      Topology::build("hp-blade-32", std::move(nodes),
                                      std::move(links)),
                      LatencyParams{100.0, 10.0}, 5.5};
}

std::vector<ServerPreset> table1_presets() {
  std::vector<ServerPreset> presets;
  presets.push_back(intel_4socket_4node());
  presets.push_back(amd_4socket_8node());
  presets.push_back(amd_8socket_8node());
  presets.push_back(hp_blade_32node());
  return presets;
}

}  // namespace numaio::topo
