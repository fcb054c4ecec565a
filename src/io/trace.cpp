#include "io/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "io/nic.h"
#include "io/ssd.h"
#include "obs/text.h"
#include "simcore/status.h"

namespace numaio::io {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw StatusError(StatusCode::kParse,
                    "trace line " + std::to_string(line) + ": " + what);
}

/// `field` read into `value` by the shared number grammar
/// (docs/FORMATS.md "Numbers"), or a failure naming the line.
template <typename T>
void read_field(std::string_view field, int line, T& value) {
  const std::errc ec = obs::text::parse_number(field, value);
  if (ec == std::errc::result_out_of_range) {
    fail(line, "number out of range '" + std::string(field) + "'");
  }
  if (ec != std::errc()) {
    fail(line, "malformed number '" + std::string(field) + "'");
  }
}

/// The engines a replayed request may name (docs/FORMATS.md §3).
constexpr std::string_view kEngines[] = {kTcpSend,  kTcpRecv,  kRdmaWrite,
                                         kRdmaRead, kSsdWrite, kSsdRead};

}  // namespace

std::vector<TraceEntry> parse_trace(const std::string& text) {
  std::vector<TraceEntry> entries;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  sim::Ns prev = -1.0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    // Trim.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);

    std::vector<std::string_view> fields;
    for (std::size_t pos = 0; pos <= line.size();) {
      const std::size_t comma = std::min(line.find(',', pos), line.size());
      fields.push_back(std::string_view(line).substr(pos, comma - pos));
      pos = comma + 1;
    }
    if (fields.size() != 4) {
      fail(line_no, "expected time_s,engine,cpu_node,gib");
    }
    TraceEntry entry;
    double time_s = 0.0;
    double gib = 0.0;
    read_field(fields[0], line_no, time_s);
    if (std::ranges::find(kEngines, fields[1]) == std::end(kEngines)) {
      fail(line_no, "unknown engine '" + std::string(fields[1]) + "'");
    }
    read_field(fields[2], line_no, entry.cpu_node);
    read_field(fields[3], line_no, gib);
    entry.arrival = time_s * 1e9;
    const double bytes = gib * static_cast<double>(sim::kGiB);
    if (!std::isfinite(entry.arrival) || entry.arrival < 0.0) {
      fail(line_no, "arrival time must be finite and >= 0");
    }
    // At least one byte, and below 2^64 so the sim::Bytes cast is
    // defined.
    if (!(bytes >= 1.0 && bytes < 18446744073709551616.0)) {
      fail(line_no, "payload must be at least 1 byte and below 2^64 bytes");
    }
    entry.bytes = static_cast<sim::Bytes>(bytes);
    if (entry.cpu_node < 0) fail(line_no, "negative node");
    if (entry.arrival < prev) fail(line_no, "arrivals must be sorted");
    prev = entry.arrival;
    entry.engine = fields[1];
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    throw StatusError(StatusCode::kParse, "trace contains no requests");
  }
  return entries;
}

std::string format_trace(const std::vector<TraceEntry>& entries) {
  std::ostringstream out;
  out << "# time_s,engine,cpu_node,gib\n";
  char buf[160];
  for (const TraceEntry& e : entries) {
    std::snprintf(buf, sizeof(buf), "%.6f,%s,%d,%.6f\n", e.arrival / 1e9,
                  e.engine.c_str(), e.cpu_node,
                  static_cast<double>(e.bytes) /
                      static_cast<double>(sim::kGiB));
    out << buf;
  }
  return out.str();
}

std::vector<TimedJob> trace_to_jobs(const std::vector<TraceEntry>& entries,
                                    const DeviceSet& set) {
  std::vector<TimedJob> jobs;
  for (const TraceEntry& e : entries) {
    TimedJob tj;
    tj.start = e.arrival;
    tj.job.engine = e.engine;
    tj.job.cpu_node = e.cpu_node;
    tj.job.bytes_per_stream = e.bytes;
    tj.job.num_streams = 1;
    // One stream, one device: alternate the cards by arrival order.
    const std::vector<const PcieDevice*> devices = set.for_engine(e.engine);
    tj.job.devices = {devices[jobs.size() % devices.size()]};
    jobs.push_back(std::move(tj));
  }
  return jobs;
}

}  // namespace numaio::io
