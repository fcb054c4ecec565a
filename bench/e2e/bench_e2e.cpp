// bench_e2e: the wall-clock end-to-end benchmark (bench/e2e/README.md).
//
//   bench_e2e run --workload W [--seed S] [--seconds T] [--reps N]
//                 [--scale F] [--traced]
//
// One workload per process, on one thread. setup_s runs from process
// start through the input build, object construction and one untimed
// warm-up rep. Timed reps follow: at least N of them, and then more while
// the next one, if it takes as long as the last, still ends within T
// seconds of process start. With --traced, untraced and traced reps
// alternate: the traced ones attach the library's observability and give
// the per-layer metrics, the untraced ones the denominator of
// trace_overhead_frac. Prints one JSON line with the raw samples (run.py
// pools several processes and computes the statistics); exits 1 if an
// output check failed, 2 on a usage error.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.h"

namespace {

using namespace e2e;

const Clock::time_point kProcessStart = Clock::now();

struct MetricDef {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json "end_to_end", measured on untraced reps.
constexpr MetricDef kEndToEnd[] = {
    {"work_per_s", "1/s"},  // units of work per host-second, one per rep
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// BENCHMARK.json "per_layer", measured on traced reps. A layer that a
/// workload does not run reports 0. Layer wall times are reported as
/// *_share, a fraction of the rep's wall time.
constexpr MetricDef kPerLayer[] = {
    {"rep_ms", "ms"},
    {"trace_overhead_frac", "frac"},
    {"span_coverage", "frac"},
    // fleet
    {"fleet.run_share", "frac"},
    {"fleet.admit_share", "frac"},
    {"fleet.requests_per_s", "1/s"},
    {"fleet.requests", "count"},
    {"fleet.admitted", "count"},
    {"fleet.shed", "count"},
    {"fleet.dispatches", "count"},
    {"fleet.completed", "count"},
    {"fleet.retries", "count"},
    {"fleet.batch_epochs", "count"},
    {"fleet.goodput_ratio", "frac"},
    {"placement.class_spread", "count"},
    {"placement.class_fallback", "count"},
    {"placement.summary_refreshes", "count"},
    {"engine.lane_events", "count"},
    {"engine.lane_rounds", "count"},
    // simcore
    {"solver.solves", "count"},
    {"solver.cache_hits", "count"},
    {"solver.rounds", "count"},
    {"solver.flows_scanned", "count"},
    {"solver.resource_touches", "count"},
    {"solver.solve_share", "frac"},
    {"solver.cache_hit_ratio", "frac"},
    {"solver.solves_per_s", "1/s"},
    // obs
    {"obs.write_share", "frac"},
    {"obs.analyze_share", "frac"},
    {"obs.fold_share", "frac"},
    {"obs.export_share", "frac"},
    {"obs.parse_mb_per_s", "MB/s"},
    {"obs.memcpy_mb_per_s", "MB/s"},
    {"obs.parse_bound_frac", "frac"},
    {"obs.capture_bytes", "B"},
    {"obs.analyze_passes", "count"},
    {"obs.peak_open_spans", "count"},
    {"obs.folded_stacks", "count"},
    // model / mem / fabric
    {"fabric.testbed_share", "frac"},
    {"mem.stream_share", "frac"},
    {"model.characterize_share", "frac"},
    {"model.validate_share", "frac"},
    {"iomodel.reps", "count"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 0.0;
  int reps = 5;
  double scale = 1.0;
  bool traced = false;
};

// ---------------------------------------------------------------------
// Host facts.

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// A numeric field of /proc/self/status ("Threads", "VmHWM"), -1 where
/// it cannot be read. VmHWM, unlike getrusage's ru_maxrss, does not carry
/// the peak of the process that forked this one.
long status_field(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      return std::stol(line.substr(key.size() + 1));
    }
  }
  return -1;
}

// ---------------------------------------------------------------------
// JSON.

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + num(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------
// The run.

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Turns one traced rep's raw layer values plus the benchmark's spans of
/// that rep into catalogue metrics.
Values layer_metrics(const Values& raw, const Spans& spans, int rep,
                     double rep_ms) {
  Values in = raw;
  for (const Spans::Span& s : spans.all()) {
    if (s.rep == rep) in[std::string(s.stage) + "_ms"] += s.ms;
  }
  Values out;
  out["rep_ms"] = rep_ms;
  out["span_coverage"] = spans.total_ms(rep) / rep_ms;
  for (const auto& [name, value] : in) {
    if (ends_with(name, "_ms")) {
      out[name.substr(0, name.size() - 3) + "_share"] = value / rep_ms;
    } else {
      out[name] = value;
    }
  }
  for (const auto& [name, value] : out) {
    const bool known =
        std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                    [&](const MetricDef& d) { return name == d.name; });
    if (!known) {
      throw std::logic_error("per-layer value '" + name +
                             "' is not in the catalogue");
    }
  }
  return out;
}

int run(const Options& o) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (o.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const std::uint64_t seed = o.seed_set ? o.seed : spec->default_seed;
  const std::string build_type = E2E_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "bench_e2e: WARNING: built as '%s', not Release; these "
                 "wall times are not comparable with a Release build\n",
                 build_type.c_str());
  }
  const int cores = nproc();

  Spans spans;
  Checks checks;
  std::uint64_t digest = 0;
  int rep_id = 0;
  int threads_peak = 0;
  const auto after_rep = [&](const RepResult& r) {
    if (rep_id == 0) digest = r.digest;
    checks.expect(r.digest == digest, "sim_digest identical across reps");
    const int threads = static_cast<int>(status_field("Threads"));
    threads_peak = std::max(threads_peak, threads);
    if (threads > 0) checks.expect(threads <= cores, "threads <= nproc");
    ++rep_id;
  };

  const std::unique_ptr<Workload> workload = spec->make(seed, o.scale);
  spans.set_rep(rep_id);
  Clock::time_point start = Clock::now();
  after_rep(workload->rep(spans, checks, false));
  double last_ms = ms_between(start, Clock::now());
  const double setup_s = ms_between(kProcessStart, Clock::now()) / 1e3;

  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> info;
  std::vector<double> item_ms;
  int plain_reps = 0;
  int traced_reps = 0;
  double plain_ms = last_ms;
  while (plain_reps < o.reps || (o.traced && traced_reps < o.reps) ||
         ms_between(kProcessStart, Clock::now()) + last_ms <=
             o.seconds * 1e3) {
    const bool traced = o.traced && traced_reps < plain_reps;
    const int id = rep_id;
    spans.set_rep(id);
    start = Clock::now();
    RepResult r = workload->rep(spans, checks, traced);
    last_ms = ms_between(start, Clock::now());
    after_rep(r);
    if (traced) {
      workload->after_traced_rep(checks, r.layer);
      Values layer = layer_metrics(r.layer, spans, id, last_ms);
      // Paired with the untraced rep just before it.
      layer["trace_overhead_frac"] = last_ms / plain_ms - 1.0;
      for (const MetricDef& d : kPerLayer) {
        samples[d.name].push_back(layer[d.name]);
      }
      ++traced_reps;
    } else {
      samples["work_per_s"].push_back(r.work / (last_ms / 1e3));
      for (const auto& [name, value] : r.info) info[name].push_back(value);
      item_ms.insert(item_ms.end(), r.item_ms.begin(), r.item_ms.end());
      plain_ms = last_ms;
      ++plain_reps;
    }
  }
  samples["setup_s"] = {setup_s};
  samples["peak_rss_mb"] = {static_cast<double>(status_field("VmHWM")) /
                            1024.0};

  std::string metrics;
  for (const MetricDef& d : o.traced ? std::span<const MetricDef>(kPerLayer)
                                     : std::span<const MetricDef>(kEndToEnd)) {
    metrics += (metrics.empty() ? "" : ", ") + quote(d.name) +
               ": {\"unit\": " + quote(d.unit) +
               ", \"samples\": " + json_list(samples.at(d.name)) + "}";
  }
  std::string info_json;
  for (const auto& [name, values] : info) {
    info_json += (info_json.empty() ? "" : ", ") + quote(name) + ": " +
                 json_list(values);
  }

  std::string failures;
  for (const std::string& f : checks.failures()) {
    failures += (failures.empty() ? "" : ", ") + quote(f);
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", f.c_str());
  }
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));

  std::string line = "{\"schema\": \"numaio-e2e v1\"";
  line += ", \"workload\": " + quote(spec->name);
  line += ", \"seed\": " + std::to_string(seed);
  line += ", \"traced\": " + std::string(o.traced ? "true" : "false");
  line += ", \"scale\": " + num(o.scale);
  line += ", \"reps\": " + std::to_string(plain_reps);
  line += ", \"traced_reps\": " + std::to_string(traced_reps);
  line += ", \"fingerprint\": {\"nproc\": " + std::to_string(cores) +
          ", \"cpu\": " + quote(cpu_model()) +
          ", \"compiler\": " + quote(E2E_COMPILER) +
          ", \"build_type\": " + quote(build_type) +
          ", \"git_rev\": " + quote(E2E_GIT_REV) +
          ", \"threads_peak\": " + std::to_string(threads_peak) + "}";
  line += ", \"metrics\": {" + metrics + "}";
  line += ", \"info\": {" + info_json + "}";
  line += ", \"item_ms\": " + json_list(item_ms);
  line += ", \"sim_digest\": " + quote(digest_hex);
  line += ", \"checks\": {\"attempted\": " +
          std::to_string(checks.attempted()) +
          ", \"failed\": " + std::to_string(checks.failed()) +
          ", \"error_rate\": " +
          num(static_cast<double>(checks.failed()) /
              static_cast<double>(checks.attempted())) +
          ", \"failures\": [" + failures + "]}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e run --workload W [--seed S] [--seconds T] "
               "[--reps N]\n"
               "                 [--scale F] [--traced]\n"
               "workloads:");
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage();
  Options o;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--traced") {
        o.traced = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        o.seed_set = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--reps") {
        o.reps = std::stoi(value);
      } else if (flag == "--scale") {
        o.scale = std::stod(value);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (o.workload.empty() || o.reps < 1 || o.seconds < 0.0 ||
      !(o.scale > 0.0)) {
    return usage();
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
