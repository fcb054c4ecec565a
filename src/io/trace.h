// Transfer-trace import/export. A production data-mover's request log
// replays against the simulated host, so placement policies can be
// evaluated on *real* arrival patterns rather than synthetic ones
// (the workflow the paper's DOE data-transfer deployments [25] imply).
//
// CSV format, one request per line, '#' comments allowed:
//
//   # time_s,engine,cpu_node,gib
//   0.000,rdma_write,7,32
//   1.250,tcp_recv,2,8
//
// time_s is the arrival time in seconds; engine one of tcp_send, tcp_recv,
// rdma_write, rdma_read, ssd_write or ssd_read; gib the payload in GiB.
#pragma once

#include <string>
#include <vector>

#include "io/fio.h"

namespace numaio::io {

struct TraceEntry {
  sim::Ns arrival = 0.0;
  std::string engine;
  NodeId cpu_node = 0;
  sim::Bytes bytes = 0;
};

/// Parses the CSV text; numbers follow the shared grammar
/// (docs/FORMATS.md "Numbers"). Throws StatusError (StatusCode::kParse,
/// which is-a std::invalid_argument) with a line number on malformed
/// input.
std::vector<TraceEntry> parse_trace(const std::string& text);

/// Builds timed single-stream jobs for the entries against a device set:
/// each arrival gets one of the devices that serve its engine
/// (DeviceSet::for_engine), taken in turn by arrival order. Throws
/// std::invalid_argument when the set has none.
std::vector<TimedJob> trace_to_jobs(const std::vector<TraceEntry>& entries,
                                    const DeviceSet& set);

}  // namespace numaio::io
