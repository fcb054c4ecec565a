#include "io/trace.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "io/ssd.h"

namespace numaio::io {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("trace line " + std::to_string(line) + ": " +
                              what);
}

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

    std::stringstream fields(line);
    std::string time_s, engine, node_s, gib_s;
    if (!std::getline(fields, time_s, ',') ||
        !std::getline(fields, engine, ',') ||
        !std::getline(fields, node_s, ',') ||
        !std::getline(fields, gib_s)) {
      fail(line_no, "expected time_s,engine,cpu_node,gib");
    }
    TraceEntry entry;
    double bytes = 0.0;
    try {
      entry.arrival = std::stod(time_s) * 1e9;
      entry.cpu_node = std::stoi(node_s);
      bytes = std::stod(gib_s) * static_cast<double>(sim::kGiB);
    } catch (const std::invalid_argument&) {
      fail(line_no, "malformed number");
    } catch (const std::out_of_range&) {
      fail(line_no, "number out of range");
    }
    if (!std::isfinite(entry.arrival) || entry.arrival < 0.0) {
      fail(line_no, "arrival time must be finite and >= 0");
    }
    // At least one byte, and below 2^64 so the sim::Bytes cast is
    // defined; the negated test rejects NaN too.
    if (!(bytes >= 1.0 && bytes < 18446744073709551616.0)) {
      fail(line_no, "payload must be at least 1 byte and below 2^64 bytes");
    }
    entry.bytes = static_cast<sim::Bytes>(bytes);
    if (entry.cpu_node < 0) fail(line_no, "negative node");
    if (entry.arrival < prev) fail(line_no, "arrivals must be sorted");
    prev = entry.arrival;
    entry.engine = engine;
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    throw std::invalid_argument("trace contains no requests");
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

std::vector<TimedJob> trace_to_jobs(
    const std::vector<TraceEntry>& entries, const PcieDevice* nic,
    const std::vector<const PcieDevice*>& ssds) {
  std::vector<TimedJob> jobs;
  for (const TraceEntry& e : entries) {
    TimedJob tj;
    tj.start = e.arrival;
    tj.job.engine = e.engine;
    tj.job.cpu_node = e.cpu_node;
    tj.job.bytes_per_stream = e.bytes;
    tj.job.num_streams = 1;
    const bool is_ssd = e.engine.rfind("ssd", 0) == 0;
    if (is_ssd) {
      if (ssds.empty()) {
        throw std::invalid_argument("trace needs SSDs but none provided");
      }
      // One stream, one card: alternate cards by arrival order.
      tj.job.devices = {ssds[jobs.size() % ssds.size()]};
    } else {
      if (nic == nullptr) {
        throw std::invalid_argument("trace needs a NIC but none provided");
      }
      tj.job.devices = {nic};
    }
    jobs.push_back(std::move(tj));
  }
  return jobs;
}

}  // namespace numaio::io
