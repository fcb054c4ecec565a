#include "faults/fault_plan.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>

#include "simcore/rng.h"
#include "simcore/status.h"

namespace numaio::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kLinkFlap:
      return "link-flap";
    case FaultKind::kMcThrottle:
      return "mc-throttle";
    case FaultKind::kDeviceStall:
      return "device-stall";
    case FaultKind::kIrqStorm:
      return "irq-storm";
    case FaultKind::kMeasureNoise:
      return "measure-noise";
    case FaultKind::kHostCrash:
      return "host-crash";
    case FaultKind::kHostHang:
      return "host-hang";
    case FaultKind::kHostRecover:
      return "host-recover";
  }
  return "?";
}

namespace {

[[noreturn]] void bad(std::size_t index, const std::string& what) {
  throw std::invalid_argument("fault event " + std::to_string(index) + ": " +
                              what);
}

}  // namespace

void FaultPlan::validate(int num_nodes, int num_devices, int num_hosts) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (e.start < 0.0 || !std::isfinite(e.start)) bad(i, "negative start");
    if (e.duration <= 0.0 || !std::isfinite(e.duration)) {
      bad(i, "non-positive duration");
    }
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap:
        if (e.src < 0 || e.src >= num_nodes || e.dst < 0 ||
            e.dst >= num_nodes || e.src == e.dst) {
          bad(i, "link fault needs a valid directed node pair");
        }
        if (e.kind == FaultKind::kLinkFlap && e.flaps < 1) {
          bad(i, "flap count must be >= 1");
        }
        break;
      case FaultKind::kMcThrottle:
      case FaultKind::kIrqStorm:
        if (e.node < 0 || e.node >= num_nodes) bad(i, "node out of range");
        break;
      case FaultKind::kDeviceStall:
        if (e.device < 0 || e.device >= num_devices) {
          bad(i, "device index out of range");
        }
        break;
      case FaultKind::kMeasureNoise:
        break;
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang:
      case FaultKind::kHostRecover:
        if (e.host < 0 || (num_hosts >= 0 && e.host >= num_hosts)) {
          bad(i, "host index out of range");
        }
        break;
    }
    if (e.kind == FaultKind::kMeasureNoise) {
      if (e.severity < 0.0) bad(i, "noise amplification must be >= 0");
    } else if (e.severity < 0.0 || e.severity > 1.0) {
      bad(i, "severity must be in [0, 1]");
    }
  }
}

FaultPlan FaultPlan::random(const RandomPlanConfig& config) {
  const int num_nodes = config.num_nodes;
  const int num_devices = config.num_devices;
  if (num_nodes < 2) {
    throw std::invalid_argument("random fault plan needs >= 2 nodes");
  }
  sim::Rng rng = sim::Rng(config.seed).fork(0x6661756c74u);  // "fault"
  // The allowed-kind table reproduces the historical draw bit for bit:
  // with num_hosts == 0 it is exactly the old `below(5 or 6)` + remap, so
  // pre-fleet seeds keep producing byte-identical plans.
  FaultKind kinds[9];
  int num_kinds = 0;
  kinds[num_kinds++] = FaultKind::kLinkDegrade;
  kinds[num_kinds++] = FaultKind::kLinkFlap;
  kinds[num_kinds++] = FaultKind::kMcThrottle;
  if (num_devices > 0) kinds[num_kinds++] = FaultKind::kDeviceStall;
  kinds[num_kinds++] = FaultKind::kIrqStorm;
  kinds[num_kinds++] = FaultKind::kMeasureNoise;
  if (config.num_hosts > 0) {
    kinds[num_kinds++] = FaultKind::kHostCrash;
    kinds[num_kinds++] = FaultKind::kHostHang;
    kinds[num_kinds++] = FaultKind::kHostRecover;
  }
  FaultPlan plan;
  for (int i = 0; i < config.num_events; ++i) {
    FaultEvent e;
    e.kind = kinds[rng.below(static_cast<std::uint64_t>(num_kinds))];
    e.start = rng.uniform(0.0, config.horizon);
    e.duration = rng.uniform(config.min_duration, config.max_duration);
    e.severity = rng.uniform(config.min_severity, config.max_severity);
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap: {
        e.src = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(num_nodes)));
        e.dst = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(num_nodes - 1)));
        if (e.dst >= e.src) ++e.dst;
        e.flaps = 1 + static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(config.max_flaps)));
        break;
      }
      case FaultKind::kMcThrottle:
      case FaultKind::kIrqStorm:
        e.node = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(num_nodes)));
        break;
      case FaultKind::kDeviceStall:
        e.device = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(num_devices)));
        break;
      case FaultKind::kMeasureNoise:
        e.severity =
            rng.uniform(1.0, config.max_noise_amplification) - 1.0;
        break;
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang:
      case FaultKind::kHostRecover:
        e.host = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(config.num_hosts)));
        break;
    }
    plan.add(e);
  }
  plan.validate(num_nodes, num_devices,
                config.num_hosts > 0 ? config.num_hosts : -1);
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char buf[160];
  for (const FaultEvent& e : events_) {
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap:
        std::snprintf(buf, sizeof buf,
                      "%-13s %d>%d start %.3fs dur %.3fs sev %.2f flaps %d\n",
                      faults::to_string(e.kind), e.src, e.dst, e.start / 1e9,
                      e.duration / 1e9, e.severity,
                      e.kind == FaultKind::kLinkFlap ? e.flaps : 0);
        break;
      case FaultKind::kMcThrottle:
      case FaultKind::kIrqStorm:
        std::snprintf(buf, sizeof buf,
                      "%-13s node %d start %.3fs dur %.3fs sev %.2f\n",
                      faults::to_string(e.kind), e.node, e.start / 1e9,
                      e.duration / 1e9, e.severity);
        break;
      case FaultKind::kDeviceStall:
        std::snprintf(buf, sizeof buf,
                      "%-13s device %d start %.3fs dur %.3fs\n",
                      faults::to_string(e.kind), e.device, e.start / 1e9,
                      e.duration / 1e9);
        break;
      case FaultKind::kMeasureNoise:
        std::snprintf(buf, sizeof buf,
                      "%-13s start %.3fs dur %.3fs amp %.2fx\n",
                      faults::to_string(e.kind), e.start / 1e9,
                      e.duration / 1e9, 1.0 + e.severity);
        break;
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang:
        std::snprintf(buf, sizeof buf,
                      "%-13s host %d start %.3fs dur %.3fs\n",
                      faults::to_string(e.kind), e.host, e.start / 1e9,
                      e.duration / 1e9);
        break;
      case FaultKind::kHostRecover:
        std::snprintf(buf, sizeof buf,
                      "%-13s host %d start %.3fs dur %.3fs sev %.2f\n",
                      faults::to_string(e.kind), e.host, e.start / 1e9,
                      e.duration / 1e9, e.severity);
        break;
    }
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Plan file format (docs/FORMATS.md §6).

namespace {

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw StatusError(StatusCode::kParse,
                    "fault plan line " + std::to_string(line) + ": " + what);
}

bool parse_kind(const std::string& name, FaultKind* out) {
  static constexpr FaultKind kAll[] = {
      FaultKind::kLinkDegrade, FaultKind::kLinkFlap,
      FaultKind::kMcThrottle,  FaultKind::kDeviceStall,
      FaultKind::kIrqStorm,    FaultKind::kMeasureNoise,
      FaultKind::kHostCrash,   FaultKind::kHostHang,
      FaultKind::kHostRecover,
  };
  for (FaultKind k : kAll) {
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

int parse_int(const std::string& value, int line, const std::string& key) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size()) {
    parse_fail(line, "bad integer for '" + key + "': '" + value + "'");
  }
  // A narrowing cast would wrap host=4294967297 to host 1.
  if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    parse_fail(line, "integer out of range for '" + key + "': '" + value +
                         "'");
  }
  return static_cast<int>(v);
}

double parse_double(const std::string& value, int line,
                    const std::string& key) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(v)) {
    parse_fail(line, "bad number for '" + key + "': '" + value + "'");
  }
  return v;
}

/// A time value with an optional s/ms/us/ns suffix; bare numbers are
/// seconds. Returns nanoseconds.
double parse_time(const std::string& value, int line, const std::string& key) {
  double scale = 1e9;  // bare == seconds
  std::string digits = value;
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return digits.size() > n &&
           digits.compare(digits.size() - n, n, suffix) == 0;
  };
  if (ends_with("ns")) {
    scale = 1.0;
    digits.resize(digits.size() - 2);
  } else if (ends_with("us")) {
    scale = 1e3;
    digits.resize(digits.size() - 2);
  } else if (ends_with("ms")) {
    scale = 1e6;
    digits.resize(digits.size() - 2);
  } else if (ends_with("s")) {
    scale = 1e9;
    digits.resize(digits.size() - 1);
  }
  const double ns = parse_double(digits, line, key) * scale;
  // start=1e300s is finite in seconds but not in nanoseconds.
  if (!std::isfinite(ns)) {
    parse_fail(line, "time out of range for '" + key + "': '" + value + "'");
  }
  return ns;
}

/// Shortest decimal rendering that strtod parses back to the same double.
std::string round_trip_double(double v) {
  char buf[40];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);

    // Tokenize on whitespace.
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                    line[i]))) {
        ++i;
      }
      std::size_t start = i;
      while (i < line.size() && !std::isspace(static_cast<unsigned char>(
                                     line[i]))) {
        ++i;
      }
      if (i > start) tokens.push_back(line.substr(start, i - start));
    }
    if (tokens.empty()) continue;

    FaultEvent e;
    if (!parse_kind(tokens[0], &e.kind)) {
      parse_fail(line_no, "unknown fault kind '" + tokens[0] + "'");
    }
    std::map<std::string, std::string> kv;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const std::size_t eq = tokens[t].find('=');
      if (eq == std::string::npos || eq == 0) {
        parse_fail(line_no, "expected key=value, got '" + tokens[t] + "'");
      }
      const std::string key = tokens[t].substr(0, eq);
      if (!kv.emplace(key, tokens[t].substr(eq + 1)).second) {
        parse_fail(line_no, "duplicate key '" + key + "'");
      }
    }
    for (const auto& [key, value] : kv) {
      if (key == "start") {
        e.start = parse_time(value, line_no, key);
      } else if (key == "dur") {
        e.duration = parse_time(value, line_no, key);
      } else if (key == "src") {
        e.src = parse_int(value, line_no, key);
      } else if (key == "dst") {
        e.dst = parse_int(value, line_no, key);
      } else if (key == "node") {
        e.node = parse_int(value, line_no, key);
      } else if (key == "device") {
        e.device = parse_int(value, line_no, key);
      } else if (key == "host") {
        e.host = parse_int(value, line_no, key);
      } else if (key == "sev") {
        e.severity = parse_double(value, line_no, key);
      } else if (key == "flaps") {
        e.flaps = parse_int(value, line_no, key);
      } else {
        parse_fail(line_no, "unknown key '" + key + "'");
      }
    }
    auto require = [&](const char* key) {
      if (!kv.count(key)) {
        parse_fail(line_no, std::string(to_string(e.kind)) +
                                " needs key '" + key + "'");
      }
    };
    require("start");
    require("dur");
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap:
        require("src");
        require("dst");
        break;
      case FaultKind::kMcThrottle:
      case FaultKind::kIrqStorm:
        require("node");
        break;
      case FaultKind::kDeviceStall:
        require("device");
        break;
      case FaultKind::kMeasureNoise:
        break;
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang:
      case FaultKind::kHostRecover:
        require("host");
        break;
    }
    plan.add(e);
  }
  return plan;
}

std::string render_fault_plan(const FaultPlan& plan) {
  std::string out;
  for (const FaultEvent& e : plan.events()) {
    out += to_string(e.kind);
    auto emit_int = [&](const char* key, int v) {
      out += ' ';
      out += key;
      out += '=';
      out += std::to_string(v);
    };
    auto emit_time = [&](const char* key, double ns) {
      out += ' ';
      out += key;
      out += '=';
      out += round_trip_double(ns);
      out += "ns";
    };
    auto emit_double = [&](const char* key, double v) {
      out += ' ';
      out += key;
      out += '=';
      out += round_trip_double(v);
    };
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
        emit_int("src", e.src);
        emit_int("dst", e.dst);
        break;
      case FaultKind::kLinkFlap:
        emit_int("src", e.src);
        emit_int("dst", e.dst);
        emit_int("flaps", e.flaps);
        break;
      case FaultKind::kMcThrottle:
      case FaultKind::kIrqStorm:
        emit_int("node", e.node);
        break;
      case FaultKind::kDeviceStall:
        emit_int("device", e.device);
        break;
      case FaultKind::kMeasureNoise:
        break;
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang:
      case FaultKind::kHostRecover:
        emit_int("host", e.host);
        break;
    }
    emit_time("start", e.start);
    emit_time("dur", e.duration);
    const bool uses_severity = e.kind != FaultKind::kDeviceStall &&
                               e.kind != FaultKind::kHostCrash &&
                               e.kind != FaultKind::kHostHang;
    if (uses_severity) emit_double("sev", e.severity);
    out += '\n';
  }
  return out;
}

}  // namespace numaio::faults
