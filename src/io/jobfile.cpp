#include "io/jobfile.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "io/nic.h"
#include "io/ssd.h"
#include "nm/policy.h"
#include "obs/text.h"
#include "simcore/status.h"

namespace numaio::io {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw StatusError(StatusCode::kParse, "job file line " +
                                            std::to_string(line) + ": " +
                                            what);
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Raw option bag for one section; engine resolution happens at the end so
/// [global] defaults can be overridden per job in any order.
struct Section {
  std::string name;
  std::string ioengine;
  std::string rw;
  sim::Bytes block_size = 0;
  int iodepth = 0;
  sim::Bytes size = 0;
  int numjobs = 0;
  int cpu_node = -1;
  bool has_cpu_node = false;
  std::vector<std::string> seen;  ///< Canonical option names set so far.
};

/// Setting the same option twice in one section is almost always a
/// copy-paste mistake in a job file; fio silently keeps the last value,
/// which is exactly how a 400g run quietly becomes a 4g run. Reject it.
/// (A job section overriding [global] is the intended mechanism and is
/// unaffected — sections track their options separately.)
void mark_seen(Section& s, const std::string& canonical, int line) {
  if (std::find(s.seen.begin(), s.seen.end(), canonical) != s.seen.end()) {
    fail(line, "duplicate option '" + canonical + "' in section [" +
                   s.name + "]");
  }
  s.seen.push_back(canonical);
}

/// An integer in [min, max] under the shared number grammar
/// (docs/FORMATS.md "Numbers"), or a failure naming the line and key.
int bounded_int(const std::string& value, int line, const std::string& key,
                int min, int max) {
  int v = 0;
  if (obs::text::parse_number(value, v) != std::errc()) {
    fail(line, "'" + key + "' wants an integer, got '" + value + "'");
  }
  if (v < min || v > max) {
    fail(line, "'" + key + "' out of range [" + std::to_string(min) + ", " +
                   std::to_string(max) + "], got " + value);
  }
  return v;
}

/// parse_size with the line number attached to any failure.
sim::Bytes parse_size_at(const std::string& value, int line,
                         const std::string& key, sim::Bytes min,
                         sim::Bytes max) {
  sim::Bytes v = 0;
  try {
    v = parse_size(value);
  } catch (const std::exception& e) {
    fail(line, e.what());
  }
  if (v < min || v > max) {
    fail(line, "'" + key + "' out of range [" + std::to_string(min) + ", " +
                   std::to_string(max) + " bytes], got '" + value + "'");
  }
  return v;
}

void apply_key(Section& s, const std::string& key, const std::string& value,
               int line) {
  if (key == "ioengine") {
    mark_seen(s, "ioengine", line);
    s.ioengine = lower(value);
  } else if (key == "rw") {
    mark_seen(s, "rw", line);
    s.rw = lower(value);
  } else if (key == "bs" || key == "blocksize") {
    mark_seen(s, "bs", line);
    s.block_size = parse_size_at(value, line, "bs", 512, sim::kGiB);
  } else if (key == "iodepth") {
    mark_seen(s, "iodepth", line);
    s.iodepth = bounded_int(value, line, "iodepth", 1, 4096);
  } else if (key == "size") {
    mark_seen(s, "size", line);
    s.size = parse_size_at(value, line, "size", 1,
                           sim::Bytes{1} << 50);  // 1 PiB ceiling
  } else if (key == "numjobs") {
    mark_seen(s, "numjobs", line);
    s.numjobs = bounded_int(value, line, "numjobs", 1, 1024);
  } else if (key == "cpunodebind" || key == "numa_cpu_nodes") {
    mark_seen(s, "cpunodebind", line);
    s.cpu_node = bounded_int(value, line, "cpunodebind", 0, nm::kMaxNodeId);
    s.has_cpu_node = true;
  } else {
    fail(line, "unknown option '" + key + "'");
  }
}

void inherit(Section& job, const Section& global) {
  if (job.ioengine.empty()) job.ioengine = global.ioengine;
  if (job.rw.empty()) job.rw = global.rw;
  if (job.block_size == 0) job.block_size = global.block_size;
  if (job.iodepth == 0) job.iodepth = global.iodepth;
  if (job.size == 0) job.size = global.size;
  if (job.numjobs == 0) job.numjobs = global.numjobs;
  if (!job.has_cpu_node && global.has_cpu_node) {
    job.cpu_node = global.cpu_node;
    job.has_cpu_node = true;
  }
}

std::string engine_name(const Section& s) {
  const bool write = s.rw == "write";
  if (s.rw != "read" && s.rw != "write") {
    throw std::invalid_argument("job '" + s.name +
                                "': rw must be read or write, got '" +
                                s.rw + "'");
  }
  if (s.ioengine == "net" || s.ioengine == "tcp") {
    return write ? kTcpSend : kTcpRecv;
  }
  if (s.ioengine == "rdma") {
    return write ? kRdmaWrite : kRdmaRead;
  }
  if (s.ioengine == "libaio") {
    return write ? kSsdWrite : kSsdRead;
  }
  throw std::invalid_argument("job '" + s.name +
                              "': unknown ioengine '" + s.ioengine + "'");
}

}  // namespace

sim::Bytes parse_size(const std::string& text) {
  const std::string t = trim(lower(text));
  std::string_view digits = t;
  sim::Bytes multiplier = 1;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'k': multiplier = sim::kKiB; break;
      case 'm': multiplier = sim::kMiB; break;
      case 'g': multiplier = sim::kGiB; break;
      default: break;
    }
    if (multiplier > 1) digits.remove_suffix(1);
  }
  sim::Bytes value = 0;
  const std::errc ec = obs::text::parse_number(digits, value);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() &&
       value > std::numeric_limits<sim::Bytes>::max() / multiplier)) {
    throw std::invalid_argument("size literal '" + text +
                                "' overflows 64 bits");
  }
  if (ec != std::errc()) {
    throw std::invalid_argument("bad size literal '" + text + "'");
  }
  return value * multiplier;
}

JobFile parse_job_file(const std::string& text) {
  Section global;
  global.name = "global";
  std::vector<Section> sections;
  Section* current = nullptr;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Strip comments, then whitespace.
    const auto comment = raw.find_first_of("#;");
    std::string line = trim(comment == std::string::npos
                                ? raw
                                : raw.substr(0, comment));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        fail(line_no, "malformed section header");
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) fail(line_no, "empty section name");
      if (lower(name) == "global") {
        current = &global;
      } else {
        for (const Section& prior : sections) {
          if (prior.name == name) {
            fail(line_no, "duplicate section [" + name + "]");
          }
        }
        sections.push_back(Section{});
        sections.back().name = name;
        current = &sections.back();
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key=value");
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) fail(line_no, "empty value for '" + key + "'");
    if (current == nullptr) {
      fail(line_no, "option before any section header");
    }
    apply_key(*current, key, value, line_no);
  }

  if (sections.empty()) {
    throw std::invalid_argument("job file defines no jobs");
  }

  JobFile file;
  for (Section& s : sections) {
    inherit(s, global);
    if (s.ioengine.empty()) {
      throw std::invalid_argument("job '" + s.name + "': missing ioengine");
    }
    if (!s.has_cpu_node) {
      throw std::invalid_argument("job '" + s.name +
                                  "': missing cpunodebind");
    }
    JobFileEntry entry;
    entry.name = s.name;
    entry.job.engine = engine_name(s);
    entry.job.cpu_node = s.cpu_node;
    if (s.numjobs > 0) entry.job.num_streams = s.numjobs;
    if (s.block_size > 0) entry.job.block_size = s.block_size;
    if (s.iodepth > 0) entry.job.iodepth = s.iodepth;
    if (s.size > 0) entry.job.bytes_per_stream = s.size;
    file.jobs.push_back(std::move(entry));
  }
  return file;
}

JobFile load_job_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StatusError(StatusCode::kNoFile, "cannot read '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_job_file(text.str());  // throws StatusError kParse
}

std::vector<FioJob> resolve_jobs(const JobFile& file, const DeviceSet& set) {
  std::vector<FioJob> jobs;
  for (const JobFileEntry& entry : file.jobs) {
    FioJob job = entry.job;
    job.devices = set.for_engine(job.engine);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace numaio::io
