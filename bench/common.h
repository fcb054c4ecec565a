// Shared helpers for the table/figure regeneration binaries.
//
// Every binary prints (a) the paper's published numbers for the experiment
// it regenerates and (b) the values measured on the simulated testbed, so
// the comparison EXPERIMENTS.md summarizes is visible in raw output.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "io/testbed.h"

namespace numaio::bench {

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// Runs one fio job on the rig and returns the average aggregate Gbps.
inline double run_engine(io::Testbed& tb, const std::string& engine,
                         topo::NodeId node, int streams) {
  io::FioRunner fio(tb.host());
  io::FioJob j;
  j.devices = tb.devices().for_engine(engine);
  j.engine = engine;
  j.cpu_node = node;
  j.num_streams = streams;
  return fio.run(j).aggregate;
}

/// Per-binding sweep at a fixed stream count over all nodes.
inline std::vector<double> sweep_nodes(io::Testbed& tb,
                                       const std::string& engine,
                                       int streams) {
  std::vector<double> out;
  for (topo::NodeId n = 0; n < tb.machine().num_nodes(); ++n) {
    out.push_back(run_engine(tb, engine, n, streams));
  }
  return out;
}

inline void print_series(const std::string& label,
                         const std::vector<double>& values) {
  std::printf("  %-14s", label.c_str());
  for (double v : values) std::printf(" %7.2f", v);
  std::printf("\n");
}

inline void print_node_header(int n) {
  std::printf("  %-14s", "binding");
  for (int i = 0; i < n; ++i) std::printf("   node%d", i);
  std::printf("\n");
}

}  // namespace numaio::bench
