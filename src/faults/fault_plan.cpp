#include "faults/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "obs/text.h"
#include "simcore/rng.h"
#include "simcore/status.h"

namespace numaio::faults {

namespace {

constexpr double kRandomMinSeverity = 0.3;
constexpr double kRandomMaxSeverity = 0.9;
constexpr std::uint64_t kRandomMaxFlaps = 4;
constexpr double kRandomMaxNoiseAmplification = 8.0;

[[noreturn]] void bad(std::size_t index, const std::string& what) {
  throw std::invalid_argument("fault event " + std::to_string(index) + ": " +
                              what);
}

}  // namespace

void FaultPlan::validate(int num_nodes, int num_devices, int num_hosts) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (static_cast<std::size_t>(e.kind) >= std::size(kFaultKinds)) {
      bad(i, "unknown kind");
    }
    if (e.start < 0.0 || !std::isfinite(e.start)) bad(i, "negative start");
    if (e.duration <= 0.0 || !std::isfinite(e.duration)) {
      bad(i, "non-positive duration");
    }
    const FaultKindInfo& k = kind_info(e.kind);
    switch (k.target) {
      case FaultTarget::kLink:
        if (e.src < 0 || e.src >= num_nodes || e.dst < 0 ||
            e.dst >= num_nodes || e.src == e.dst) {
          bad(i, "link fault needs a valid directed node pair");
        }
        break;
      case FaultTarget::kNodeMemory:
      case FaultTarget::kNodeCpu:
        if (e.node < 0 || e.node >= num_nodes) bad(i, "node out of range");
        break;
      case FaultTarget::kDevice:
        if (e.device < 0 || e.device >= num_devices) {
          bad(i, "device index out of range");
        }
        break;
      case FaultTarget::kHost:
        if (e.host < 0 || (num_hosts >= 0 && e.host >= num_hosts)) {
          bad(i, "host index out of range");
        }
        break;
      case FaultTarget::kNone:
        break;
    }
    if (k.flaps && e.flaps < 1) bad(i, "flap count must be >= 1");
    // Negated compares, so a NaN severity fails too.
    if (k.severity == FaultSeverity::kNoise) {
      if (!(e.severity >= 0.0 && std::isfinite(e.severity))) {
        bad(i, "noise amplification must be finite and >= 0");
      }
    } else if (!(e.severity >= 0.0 && e.severity <= 1.0)) {
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
  // Negated compares, so NaN fails too.
  if (!(config.horizon > 0.0 && std::isfinite(config.horizon))) {
    throw std::invalid_argument(
        "random fault plan needs a finite horizon > 0");
  }
  if (!(config.min_duration > 0.0 &&
        config.min_duration <= config.max_duration &&
        std::isfinite(config.max_duration))) {
    throw std::invalid_argument(
        "random fault plan needs finite durations with 0 < min_duration <= "
        "max_duration");
  }
  sim::Rng rng = sim::Rng(config.seed).fork(0x6661756c74u);  // "fault"
  // Kinds are drawn from the table rows the host shape can take, in
  // table order: with no devices and no hosts that is exactly the
  // pre-device, pre-fleet draw, so old seeds keep their plans.
  FaultKind kinds[std::size(kFaultKinds)];
  int num_kinds = 0;
  for (const FaultKindInfo& k : kFaultKinds) {
    if (k.target == FaultTarget::kDevice && num_devices <= 0) continue;
    if (k.target == FaultTarget::kHost && config.num_hosts <= 0) continue;
    kinds[num_kinds++] = k.kind;
  }
  FaultPlan plan;
  for (int i = 0; i < config.num_events; ++i) {
    FaultEvent e;
    e.kind = kinds[rng.below(static_cast<std::uint64_t>(num_kinds))];
    e.start = rng.uniform(0.0, config.horizon);
    e.duration = rng.uniform(config.min_duration, config.max_duration);
    e.severity = rng.uniform(kRandomMinSeverity, kRandomMaxSeverity);
    const FaultKindInfo& k = kind_info(e.kind);
    switch (k.target) {
      case FaultTarget::kLink:
        e.src = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(num_nodes)));
        e.dst = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(num_nodes - 1)));
        if (e.dst >= e.src) ++e.dst;
        // Drawn for every link kind, flapping or not, so the draw
        // sequence (and every seed's plan) stays what it always was.
        e.flaps = 1 + static_cast<int>(rng.below(kRandomMaxFlaps));
        break;
      case FaultTarget::kNodeMemory:
      case FaultTarget::kNodeCpu:
        e.node = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(num_nodes)));
        break;
      case FaultTarget::kDevice:
        e.device = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(num_devices)));
        break;
      case FaultTarget::kHost:
        e.host = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(config.num_hosts)));
        break;
      case FaultTarget::kNone:
        break;
    }
    if (k.severity == FaultSeverity::kNoise) {
      e.severity = rng.uniform(1.0, kRandomMaxNoiseAmplification) - 1.0;
    }
    plan.add(e);
  }
  plan.validate(num_nodes, num_devices,
                config.num_hosts > 0 ? config.num_hosts : -1);
  return plan;
}

// ---------------------------------------------------------------------------
// Plan file format (docs/FORMATS.md §6).

namespace {

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw StatusError(StatusCode::kParse,
                    "fault plan line " + std::to_string(line) + ": " + what);
}

/// The table row named `name`, or nullptr.
const FaultKindInfo* parse_kind(std::string_view name) {
  for (const FaultKindInfo& k : kFaultKinds) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

/// One plan-file key of an event, bound to the field it fills.
struct Field {
  const char* key;
  int* integer = nullptr;  ///< The target's ids and `flaps`.
  double* real = nullptr;  ///< `start` and `dur` (ns), and `sev`.
  bool time = false;       ///< `real` is written with a unit suffix.
  bool required = true;
  bool given = false;      ///< Set by the parser when the line has it.
};

/// The keys `e`'s kind takes, in rendering order: its target's ids,
/// `flaps` if it flaps, the window, then `sev` if its severity means
/// anything. `flaps` and `sev` may be left out.
std::vector<Field> fields_of(FaultEvent& e) {
  const FaultKindInfo& k = kind_info(e.kind);
  std::vector<Field> fields;
  switch (k.target) {
    case FaultTarget::kLink:
      fields.push_back({.key = "src", .integer = &e.src});
      fields.push_back({.key = "dst", .integer = &e.dst});
      break;
    case FaultTarget::kNodeMemory:
    case FaultTarget::kNodeCpu:
      fields.push_back({.key = "node", .integer = &e.node});
      break;
    case FaultTarget::kDevice:
      fields.push_back({.key = "device", .integer = &e.device});
      break;
    case FaultTarget::kHost:
      fields.push_back({.key = "host", .integer = &e.host});
      break;
    case FaultTarget::kNone:
      break;
  }
  if (k.flaps) {
    fields.push_back({.key = "flaps", .integer = &e.flaps, .required = false});
  }
  fields.push_back({.key = "start", .real = &e.start, .time = true});
  fields.push_back({.key = "dur", .real = &e.duration, .time = true});
  if (k.severity != FaultSeverity::kNone) {
    fields.push_back({.key = "sev", .real = &e.severity, .required = false});
  }
  return fields;
}

/// `value` read as a T by the shared number grammar (docs/FORMATS.md
/// "Numbers"), or a parse error naming `key`: host=4294967297 does not
/// fit an int, so it cannot wrap to host 1.
template <typename T>
T parse_value(std::string_view value, int line, const std::string& key) {
  T v{};
  const std::errc ec = obs::text::parse_number(value, v);
  if (ec == std::errc::result_out_of_range) {
    parse_fail(line, "number out of range for '" + key + "': '" +
                         std::string(value) + "'");
  }
  if (ec != std::errc()) {
    parse_fail(line, "bad number for '" + key + "': '" + std::string(value) +
                         "'");
  }
  return v;
}

/// A time value with an optional s/ms/us/ns suffix; bare numbers are
/// seconds. Returns nanoseconds.
double parse_time(std::string_view value, int line, const std::string& key) {
  struct Unit {
    std::string_view suffix;
    double scale;
  };
  static constexpr Unit kUnits[] = {
      {"ns", 1.0}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}};
  double scale = 1e9;  // bare == seconds
  std::string_view number = value;
  for (const Unit& unit : kUnits) {
    if (number.ends_with(unit.suffix)) {
      number.remove_suffix(unit.suffix.size());
      scale = unit.scale;
      break;
    }
  }
  const double ns = parse_value<double>(number, line, key) * scale;
  // start=1e300s is finite in seconds but not in nanoseconds.
  if (!std::isfinite(ns)) {
    parse_fail(line, "time out of range for '" + key + "': '" +
                         std::string(value) + "'");
  }
  return ns;
}

/// Shortest of printf's %.15g, %.16g and %.17g that reads back to `v`.
std::string round_trip_double(double v) {
  char buf[40];
  std::string_view text;
  for (int precision : {15, 16, 17}) {
    const char* end = std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::general, precision)
                          .ptr;
    text = std::string_view(buf, static_cast<std::size_t>(end - buf));
    double back = 0.0;
    if (obs::text::parse_number(text, back) == std::errc() && back == v) {
      break;
    }
  }
  return std::string(text);
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

    const std::vector<std::string_view> tokens = obs::text::split_words(line);
    if (tokens.empty()) continue;

    const FaultKindInfo* kind = parse_kind(tokens[0]);
    if (kind == nullptr) {
      parse_fail(line_no,
                 "unknown fault kind '" + std::string(tokens[0]) + "'");
    }
    FaultEvent e;
    e.kind = kind->kind;
    std::vector<Field> fields = fields_of(e);
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const std::size_t eq = tokens[t].find('=');
      if (eq == std::string::npos || eq == 0) {
        parse_fail(line_no, "expected key=value, got '" +
                                std::string(tokens[t]) + "'");
      }
      const std::string key(tokens[t].substr(0, eq));
      const std::string_view value = tokens[t].substr(eq + 1);
      const auto f = std::find_if(fields.begin(), fields.end(),
                                  [&](const Field& x) { return key == x.key; });
      if (f == fields.end()) {
        parse_fail(line_no,
                   std::string(kind->name) + " takes no key '" + key + "'");
      }
      if (f->given) parse_fail(line_no, "duplicate key '" + key + "'");
      f->given = true;
      if (f->integer != nullptr) {
        *f->integer = parse_value<int>(value, line_no, key);
      } else if (f->time) {
        *f->real = parse_time(value, line_no, key);
      } else {
        *f->real = parse_value<double>(value, line_no, key);
      }
    }
    for (const Field& f : fields) {
      if (f.required && !f.given) {
        parse_fail(line_no, std::string(kind->name) + " needs key '" +
                                f.key + "'");
      }
    }
    plan.add(e);
  }
  return plan;
}

std::string render_fault_plan(const FaultPlan& plan) {
  std::string out;
  for (FaultEvent e : plan.events()) {
    out += to_string(e.kind);
    for (const Field& f : fields_of(e)) {
      out += ' ';
      out += f.key;
      out += '=';
      if (f.integer != nullptr) {
        out += std::to_string(*f.integer);
      } else {
        out += round_trip_double(*f.real);
        if (f.time) out += "ns";
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace numaio::faults
