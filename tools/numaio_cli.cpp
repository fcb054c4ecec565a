// numaio command-line tool — the "first NUMA characterization software for
// bulk data I/O tasks" the paper claims as its third contribution, in the
// spirit of the numactl/numademo family it extends (§II-B, §V-B).
//
//   numaio_cli hardware                  numactl --hardware + hwloc views
//   numaio_cli stream-matrix             Fig-3 STREAM characterization
//   numaio_cli iomodel [--target N] [--direction read|write]
//                                        Algorithm 1 + classes (Fig 10)
//   numaio_cli demo [--node N]           numademo policy table
//   numaio_cli fio <jobfile>             run a fio-format job file
//   numaio_cli fleet [--hosts N] [--tenants N] [--rate RPS] ...
//                                        serve a multi-tenant request storm
//                                        across N simulated hosts with
//                                        admission control, shedding and a
//                                        mid-run host crash (src/fleet)
//   numaio_cli metrics [--in FILE]       metric registry / captured summary
//   numaio_cli report [--trace-in FILE] [--format md|json] [--diff FILE]
//                                        analyzed run report (critical path,
//                                        contention, class table, fault audit)
//                                        or deltas against a saved JSON report
//   numaio_cli export --trace-in FILE [--chrome FILE] [--folded FILE]
//                                        re-render a capture for Perfetto
//                                        or flamegraph.pl / speedscope
//   numaio_cli synth-trace --out FILE    write a deterministic synthetic
//                                        capture (scale testing); --depth/
//                                        --fanout build deep span chains
//   numaio_cli serve [--port P] [--refresh-ms MS] [--rounds N]
//                                        run fleet storm rounds while a
//                                        local HTTP endpoint serves live
//                                        Prometheus text and a rolling
//                                        report (src/obs/serve.h)
//   numaio_cli help
//
// `report --trace-in` and `export --trace-in` stream the JSONL capture
// through the src/obs record-stream core — the file is re-read pass by
// pass and never materialized, so they work on arbitrarily large traces.
//
// Every subcommand accepts --trace-out FILE (structured span/event trace,
// JSONL by default, CSV when FILE ends in .csv), --metrics-out FILE
// (counters/gauges/histograms as JSON), --prom-out FILE (the same
// snapshot in Prometheus text exposition format), --chrome-out FILE (the
// trace as Chrome trace-event JSON for Perfetto) and
// --trace-deterministic (omit the wall-clock field so same-seed runs
// write byte-identical traces) — the observability layer of src/obs
// threaded through the measurement pipeline.
//
// Everything runs against the simulated DL585 testbed; on real hardware
// the same library calls would sit on top of libnuma (see DESIGN.md).
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "numaio.h"

namespace {

using namespace numaio;

// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 missing or
// unreadable file, 4 malformed input file. Scripts can branch on them.
// The codes are simply numaio::StatusCode values; errors are raised as
// StatusError and mapped back in main().
constexpr int kExitRuntime = static_cast<int>(StatusCode::kRuntime);
constexpr int kExitUsage = static_cast<int>(StatusCode::kUsage);
constexpr int kExitParse = static_cast<int>(StatusCode::kParse);

/// Bad flags / missing operands; main() maps it to exit code 2.
[[noreturn]] void usage_error(const std::string& what) {
  throw StatusError(StatusCode::kUsage, what);
}

int usage() {
  std::printf(
      "usage: numaio_cli <command> [options]\n"
      "  hardware                         host topology and memory view\n"
      "  stream-matrix                    full STREAM bandwidth matrix\n"
      "  iomodel [--target N] [--direction read|write]\n"
      "                                   run the iomodel methodology\n"
      "  characterize [--out FILE] [--reps N]\n"
      "                                   model every node, optionally save\n"
      "  classes --in FILE [--target N] [--direction read|write]\n"
      "                                   inspect a saved host model\n"
      "  demo [--node N]                  numademo policy table\n"
      "  fio <jobfile>                    run a fio-format job file\n"
      "  fleet [--hosts N] [--tenants N] [--rate RPS] [--seed S]\n"
      "        [--duration SECONDS] [--queue-depth N] [--deadline-ms MS]\n"
      "        [--plan FILE] [--print-plan] [--scale]\n"
      "        [--batch-window MS] [--service fluid|coarse]\n"
      "        [--placement least-loaded|class-spread]\n"
      "        [--serve-port P] [--refresh-ms MS] [--linger-ms MS]\n"
      "                                   run the fleet serving core: a\n"
      "                                   multi-tenant storm over N hosts\n"
      "                                   with admission control, shedding,\n"
      "                                   breakers and (by default) one\n"
      "                                   host crashing mid-run; --plan\n"
      "                                   replaces the default fault plan\n"
      "                                   (docs/FORMATS.md section 6);\n"
      "                                   --scale switches to the scale\n"
      "                                   scenario (batched admission,\n"
      "                                   coarse service, class-spread\n"
      "                                   placement, grid-aligned\n"
      "                                   completion alarms);\n"
      "                                   --serve-port exposes live\n"
      "                                   telemetry over HTTP during the\n"
      "                                   run (0 = ephemeral port)\n"
      "  faults [--seed S] [--events N] [--jobfile FILE]\n"
      "                                   run I/O under an injected fault plan\n"
      "  replay <trace.csv> [--serve-port P] [--refresh-ms MS]\n"
      "         [--linger-ms MS]           replay a transfer trace;\n"
      "                                   --serve-port exposes live\n"
      "                                   telemetry during the replay\n"
      "  online [--policy all-local|round-robin|model-spread|model-adaptive]\n"
      "         [--tasks N] [--seed S] [--mean-arrival SECONDS] [--reps N]\n"
      "         [--serve-port P] [--refresh-ms MS] [--linger-ms MS]\n"
      "                                   place a seeded open-loop workload\n"
      "                                   with the online scheduler (paper\n"
      "                                   section VI); --serve-port exposes\n"
      "                                   live telemetry during the run\n"
      "  validate [--reps N]              check the methodology end to end\n"
      "  asymmetry [--target N] [--min-ratio R]\n"
      "                                   hunt directional asymmetries\n"
      "  metrics [--in FILE]              list known metrics, or summarize a\n"
      "                                   --metrics-out capture\n"
      "  report [--trace-in FILE] [--format md|json] [--out FILE]\n"
      "         [--seed S] [--reps N] [--events N] [--top K] [--diff FILE]\n"
      "                                   analyze a capture (streamed, any\n"
      "                                   size), or run a seeded degraded\n"
      "                                   characterization + I/O run, and\n"
      "                                   report classes, critical path,\n"
      "                                   contention and the fault audit;\n"
      "                                   --diff prints class-structure and\n"
      "                                   critical-path deltas against a\n"
      "                                   saved --format json report\n"
      "  export [--trace-in FILE [--chrome FILE] [--folded FILE]\n"
      "          [--fold-weight wall|self]]\n"
      "         [--metrics-in FILE --prom FILE]\n"
      "                                   re-render saved captures (Chrome\n"
      "                                   trace JSON / folded stacks for\n"
      "                                   flamegraph.pl or speedscope /\n"
      "                                   Prometheus text); traces stream,\n"
      "                                   any size\n"
      "  synth-trace --out FILE [--records N] [--streams N] [--seed S]\n"
      "              [--depth D] [--fanout F]\n"
      "                                   write a deterministic synthetic\n"
      "                                   JSONL capture for scale testing;\n"
      "                                   --depth > 1 nests spans D deep\n"
      "                                   (flame-fold stress shape)\n"
      "  serve [--port P] [--refresh-ms MS] [--rounds N] [--linger-ms MS]\n"
      "        [--hosts N] [--tenants N] [--rate RPS] [--seed S]\n"
      "        [--duration SECONDS]\n"
      "                                   run N fleet storm rounds while\n"
      "                                   serving GET /metrics (Prometheus\n"
      "                                   text), /report (rolling markdown)\n"
      "                                   and /healthz on 127.0.0.1:P\n"
      "                                   (default port 0 = ephemeral,\n"
      "                                   printed on stdout)\n"
      "  help                             this text\n"
      "global options (any subcommand):\n"
      "  --trace-out FILE                 write a span/event trace (JSONL;\n"
      "                                   CSV when FILE ends in .csv)\n"
      "  --trace-deterministic            omit the wall-clock field: same-seed\n"
      "                                   runs write byte-identical traces\n"
      "  --metrics-out FILE               write counters/histograms as JSON\n"
      "  --prom-out FILE                  write metrics in Prometheus text\n"
      "                                   exposition format\n"
      "  --chrome-out FILE                write the trace as Chrome\n"
      "                                   trace-event JSON (Perfetto)\n"
      "exit codes: 0 ok, 1 runtime failure, 2 usage, 3 unreadable file,\n"
      "            4 malformed input file\n");
  return kExitUsage;
}

std::string flag_value(const std::vector<std::string>& args,
                       const std::string& flag, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

/// Removes `flag VALUE` from args and returns VALUE ("" when absent).
/// Used for the global --trace-out/--metrics-out options so subcommand
/// parsers never see them.
std::string take_flag(std::vector<std::string>& args,
                      const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      usage_error(flag + " wants a value");
    }
    const std::string value = args[i + 1];
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    return value;
  }
  return "";
}

/// Removes a valueless boolean `flag`; returns whether it was present.
bool take_switch(std::vector<std::string>& args, const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

/// Integer flag with a one-line actionable error instead of a bare stoi
/// exception escaping as a generic runtime failure.
int int_flag(const std::vector<std::string>& args, const std::string& flag,
             int fallback) {
  const std::string text =
      flag_value(args, flag, std::to_string(fallback));
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " wants an integer, got '" + text + "'");
  }
}

double double_flag(const std::vector<std::string>& args,
                   const std::string& flag, double fallback) {
  const std::string text = flag_value(args, flag, "");
  if (text.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " wants a number, got '" + text + "'");
  }
}

std::uint64_t u64_flag(const std::vector<std::string>& args,
                       const std::string& flag, std::uint64_t fallback) {
  const std::string text =
      flag_value(args, flag, std::to_string(fallback));
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " wants an unsigned integer, got '" + text + "'");
  }
}

// Consuming flag parsers for subcommands that reject unknown options:
// each removes `flag VALUE` from args, so whatever remains afterwards is
// by definition unrecognized and the command can fail loudly on it.

int take_int(std::vector<std::string>& args, const std::string& flag,
             int fallback) {
  const std::string text = take_flag(args, flag);
  if (text.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " wants an integer, got '" + text + "'");
  }
}

double take_double(std::vector<std::string>& args, const std::string& flag,
                   double fallback) {
  const std::string text = take_flag(args, flag);
  if (text.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " wants a number, got '" + text + "'");
  }
}

std::uint64_t take_u64(std::vector<std::string>& args,
                       const std::string& flag, std::uint64_t fallback) {
  const std::string text = take_flag(args, flag);
  if (text.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " wants an unsigned integer, got '" + text + "'");
  }
}

/// Slurps a file or throws StatusError(kNoFile) with the OS reason.
std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw StatusError(StatusCode::kNoFile, "cannot open '" + path + "': " +
                                               std::strerror(errno));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Streaming source over a --trace-in capture. Openability is probed up
/// front so a missing file still exits 3 (kNoFile) like every other
/// input; after that the source re-reads the file pass by pass and the
/// capture is never held in memory.
obs::JsonlFileSource open_trace_source(const std::string& path) {
  std::ifstream probe(path);
  if (!probe) {
    throw StatusError(StatusCode::kNoFile, "cannot open '" + path + "': " +
                                               std::strerror(errno));
  }
  return obs::JsonlFileSource(path);
}

int cmd_hardware(io::Testbed& tb) {
  std::printf("%s\n", tb.host().hardware_report().c_str());
  std::printf("%s\n", nm::render_hwloc(tb.machine().topology()).c_str());
  std::printf("%s", nm::render_interconnect(tb.machine().topology()).c_str());
  std::printf("\n%s",
              nm::render_slit(nm::slit_table(tb.machine().topology())).c_str());
  return 0;
}

int cmd_stream_matrix(io::Testbed& tb) {
  const auto m = mem::stream_matrix(tb.host(), mem::StreamConfig{});
  std::printf("%s", model::format_matrix(m).c_str());
  return 0;
}

int cmd_iomodel(io::Testbed& tb, obs::Context& ctx,
                const std::vector<std::string>& args) {
  const int target = int_flag(args, "--target", 7);
  const std::string dir = flag_value(args, "--direction", "write");
  if (target < 0 || target >= tb.machine().num_nodes()) {
    std::fprintf(stderr, "iomodel: target node out of range\n");
    return 2;
  }
  if (dir != "read" && dir != "write") {
    std::fprintf(stderr, "iomodel: --direction must be read or write\n");
    return 2;
  }
  const auto direction = dir == "write" ? model::Direction::kDeviceWrite
                                        : model::Direction::kDeviceRead;
  model::IoModelConfig config;
  config.obs = &ctx;
  const auto m = model::build_iomodel(tb.host(), target, direction, config);
  std::printf("%s",
              model::format_series("device-" + dir + " model of node " +
                                       std::to_string(target),
                                   m.bw)
                  .c_str());
  const auto classes = model::classify(m, tb.machine().topology());
  for (int c = 0; c < classes.num_classes(); ++c) {
    std::printf("class %d:", c + 1);
    for (topo::NodeId v : classes.classes[static_cast<std::size_t>(c)]) {
      std::printf(" %d", v);
    }
    std::printf("  (avg %.1f Gbps, range %.1f-%.1f)\n",
                classes.class_avg[static_cast<std::size_t>(c)],
                classes.class_range[static_cast<std::size_t>(c)].first,
                classes.class_range[static_cast<std::size_t>(c)].second);
  }
  std::printf("representatives:");
  for (topo::NodeId v : model::representative_nodes(classes)) {
    std::printf(" %d", v);
  }
  std::printf("  (probe these %d bindings instead of all %d)\n",
              classes.num_classes(), tb.machine().num_nodes());
  return 0;
}

int cmd_demo(io::Testbed& tb, const std::vector<std::string>& args) {
  const int node = int_flag(args, "--node", 7);
  if (node < 0 || node >= tb.machine().num_nodes()) {
    std::fprintf(stderr, "demo: node out of range\n");
    return 2;
  }
  std::printf("numademo on node %d (Gbps)\n", node);
  std::printf("%-16s %10s %12s %12s\n", "module", "local", "remote-worst",
              "interleaved");
  for (const auto& row : mem::demo_policy_table(tb.host(), node)) {
    std::printf("%-16s %10.2f %12.2f %12.2f\n",
                mem::to_string(row.module).c_str(), row.local,
                row.remote_worst, row.interleaved);
  }
  return 0;
}

void print_classes(const model::Classification& classes) {
  for (int c = 0; c < classes.num_classes(); ++c) {
    std::printf("  class %d:", c + 1);
    for (topo::NodeId v : classes.classes[static_cast<std::size_t>(c)]) {
      std::printf(" %d", v);
    }
    std::printf("  (avg %.1f Gbps)\n",
                classes.class_avg[static_cast<std::size_t>(c)]);
  }
}

int cmd_characterize(io::Testbed& tb, obs::Context& ctx,
                     const std::vector<std::string>& args) {
  model::CharacterizeConfig config;
  config.iomodel.repetitions = int_flag(args, "--reps", 100);
  config.iomodel.obs = &ctx;
  const model::HostModel host_model = model::characterize_host(
      tb.host(), config);
  std::printf("characterized %s: %d nodes, both directions\n",
              host_model.host_name.c_str(), host_model.num_nodes);
  for (topo::NodeId t = 0; t < host_model.num_nodes; ++t) {
    std::printf("node %d: %d write classes, %d read classes\n", t,
                host_model.write_classes[static_cast<std::size_t>(t)]
                    .num_classes(),
                host_model.read_classes[static_cast<std::size_t>(t)]
                    .num_classes());
  }
  const std::string out = flag_value(args, "--out", "");
  if (!out.empty()) {
    model::save_model(host_model, out);  // StatusError(kNoFile) on failure
    std::printf("saved to %s\n", out.c_str());
  }
  return 0;
}

int cmd_classes(const std::vector<std::string>& args) {
  const std::string in = flag_value(args, "--in", "");
  if (in.empty()) {
    std::fprintf(stderr, "classes: --in FILE is required\n");
    return 2;
  }
  const model::HostModel host_model = model::load_model(in);
  const int target = int_flag(args, "--target", 7);
  const std::string dir = flag_value(args, "--direction", "read");
  if (target < 0 || target >= host_model.num_nodes) {
    std::fprintf(stderr, "classes: target out of range\n");
    return 2;
  }
  const auto direction = dir == "write" ? model::Direction::kDeviceWrite
                                        : model::Direction::kDeviceRead;
  std::printf("host %s, device-%s model of node %d:\n",
              host_model.host_name.c_str(), dir.c_str(), target);
  print_classes(host_model.classes_for(target, direction));
  return 0;
}

int cmd_asymmetry(io::Testbed& tb, const std::vector<std::string>& args) {
  const int target = int_flag(args, "--target", 7);
  const double min_ratio = double_flag(args, "--min-ratio", 1.15);
  if (target < 0 || target >= tb.machine().num_nodes()) {
    std::fprintf(stderr, "asymmetry: target out of range\n");
    return 2;
  }
  const auto m = model::iomodel_matrix(tb.host(), target);
  const auto pairs = model::find_asymmetric_pairs(m, min_ratio);
  if (pairs.empty()) {
    std::printf("no directional asymmetry above %.2fx around node %d\n",
                min_ratio, target);
    return 0;
  }
  for (const auto& line : model::describe(pairs)) {
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

int cmd_validate(io::Testbed& tb, const std::vector<std::string>& args) {
  model::ValidateConfig config;
  config.iomodel_repetitions = int_flag(args, "--reps", 100);
  const model::ValidationReport report =
      model::validate_methodology(tb, config);
  std::printf("%s", report.to_string().c_str());
  return report.all_passed() ? 0 : 1;
}

/// `--serve-port` wiring shared by the subcommands that can expose a live
/// telemetry endpoint (fleet, replay, online). start() tees a refresh-
/// cadenced tap (obs/serve.h) with whatever sink main() wired — file
/// serializer, capture, or none — brings the HTTP server up and prints
/// (and flushes) the endpoint line before the workload starts, so scripts
/// can scrape mid-run. finish() flushes the final snapshot, optionally
/// lingers so late scrapers still land, then stops the server and
/// restores the previous sink. Both are no-ops when start() was never
/// called (port < 0).
class ServeTap {
 public:
  ~ServeTap() {
    // Belt and braces: a StatusError thrown mid-run must not leave the
    // context pointed at our dying tee.
    if (active_) finish(0);
  }

  void start(obs::Context& ctx, int port, int refresh_ms) {
    ctx_ = &ctx;
    refresh_ms_ = refresh_ms;
    tap_ = std::make_unique<obs::TelemetryTap>(hub_, &ctx.metrics,
                                               refresh_ms);
    tap_sink_ = std::make_unique<obs::VisitorSink>(*tap_);
    prev_sink_ = ctx.trace.sink();
    tee_.add(prev_sink_);  // add() ignores nullptr
    tee_.add(tap_sink_.get());
    ctx.trace.set_sink(&tee_);
    server_.start(port);
    std::printf("serving telemetry on http://127.0.0.1:%d"
                " (GET /metrics /report /healthz), refresh %d ms\n",
                server_.port(), refresh_ms_);
    std::fflush(stdout);
    active_ = true;
  }

  void finish(int linger_ms) {
    if (!active_) return;
    tap_->flush();  // final state stays scrapeable regardless of cadence
    if (linger_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    }
    server_.stop();
    ctx_->trace.set_sink(prev_sink_);
    active_ = false;
  }

  bool active() const { return active_; }

 private:
  obs::Context* ctx_ = nullptr;
  obs::TelemetryHub hub_;
  obs::TelemetryServer server_{hub_};
  std::unique_ptr<obs::TelemetryTap> tap_;
  std::unique_ptr<obs::VisitorSink> tap_sink_;
  obs::TeeSink tee_;
  obs::TraceSink* prev_sink_ = nullptr;
  int refresh_ms_ = 250;
  bool active_ = false;
};

int cmd_replay(io::Testbed& tb, obs::Context& ctx,
               std::vector<std::string>& args) {
  const int serve_port = take_int(args, "--serve-port", -1);
  const int refresh_ms = take_int(args, "--refresh-ms", 250);
  const int linger_ms = take_int(args, "--linger-ms", 0);
  if (serve_port > 65535) usage_error("--serve-port wants a port <= 65535");
  if (linger_ms < 0) usage_error("--linger-ms wants >= 0");
  if (args.empty()) {
    std::fprintf(stderr, "replay: missing trace path\n");
    return kExitUsage;
  }
  const auto entries = io::parse_trace(read_file(args.front()));
  const auto jobs = io::trace_to_jobs(entries, &tb.nic(), tb.ssds());
  io::FioRunner fio(tb.host());
  fio.set_observer(&ctx);
  ServeTap serve;
  if (serve_port >= 0) serve.start(ctx, serve_port, refresh_ms);
  const auto results = fio.run_timed(jobs);
  serve.finish(linger_ms);
  double total_gib = 0.0;
  sim::Ns last_end = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%8.3fs %-10s node%d %8.1f GiB  %7.2f Gbps\n",
                entries[i].arrival / 1e9, entries[i].engine.c_str(),
                entries[i].cpu_node,
                static_cast<double>(entries[i].bytes) /
                    static_cast<double>(sim::kGiB),
                results[i].aggregate);
    total_gib += static_cast<double>(entries[i].bytes) /
                 static_cast<double>(sim::kGiB);
    last_end =
        std::max(last_end, entries[i].arrival + results[i].duration);
  }
  std::printf("replayed %zu requests, %.1f GiB in %.2f s\n",
              results.size(), total_gib, last_end / 1e9);
  return 0;
}

/// `online`: the paper's §VI future-work direction as a subcommand — a
/// seeded open-loop workload placed by model::OnlineScheduler under a
/// chosen policy, with the same live telemetry tap `fleet` and `replay`
/// offer. Strict flag parsing, like `fleet`.
int cmd_online(io::Testbed& tb, obs::Context& ctx,
               std::vector<std::string>& args) {
  const std::string policy_name = take_flag(args, "--policy");
  const int tasks_n = take_int(args, "--tasks", 24);
  const std::uint64_t seed = take_u64(args, "--seed", 20130601);
  const double mean_arrival_s = take_double(args, "--mean-arrival", 2.0);
  const int reps = take_int(args, "--reps", 100);
  const int serve_port = take_int(args, "--serve-port", -1);
  const int refresh_ms = take_int(args, "--refresh-ms", 250);
  const int linger_ms = take_int(args, "--linger-ms", 0);
  if (!args.empty()) {
    usage_error("online: unknown option '" + args.front() + "'");
  }
  if (tasks_n < 1) usage_error("--tasks wants a positive count");
  if (mean_arrival_s <= 0.0) {
    usage_error("--mean-arrival wants positive seconds");
  }
  if (reps < 1) usage_error("--reps wants a positive count");
  if (serve_port > 65535) usage_error("--serve-port wants a port <= 65535");
  if (linger_ms < 0) usage_error("--linger-ms wants >= 0");
  model::OnlineConfig config;
  if (policy_name.empty() || policy_name == "model-adaptive") {
    config.policy = model::OnlinePolicy::kModelAdaptive;
  } else if (policy_name == "all-local") {
    config.policy = model::OnlinePolicy::kAllLocal;
  } else if (policy_name == "round-robin") {
    config.policy = model::OnlinePolicy::kRoundRobin;
  } else if (policy_name == "model-spread") {
    config.policy = model::OnlinePolicy::kModelSpread;
  } else {
    usage_error("--policy wants all-local|round-robin|model-spread|"
                "model-adaptive");
  }

  // Boot-time characterization of the NIC's node, both directions — the
  // model the placement policies consult (Algorithm 1).
  const int target = tb.nic().attach_node();
  model::IoModelConfig iomodel;
  iomodel.repetitions = reps;
  const auto wm = model::build_iomodel(
      tb.host(), target, model::Direction::kDeviceWrite, iomodel);
  const auto rm = model::build_iomodel(
      tb.host(), target, model::Direction::kDeviceRead, iomodel);
  const auto wc = model::classify(wm, tb.machine().topology());
  const auto rc = model::classify(rm, tb.machine().topology());

  model::WorkloadConfig wl;
  wl.seed = seed;
  wl.num_tasks = tasks_n;
  wl.mean_interarrival = mean_arrival_s * 1e9;
  wl.engine_mix = {io::kTcpSend, io::kTcpRecv, io::kRdmaWrite,
                   io::kRdmaRead};
  const auto tasks = model::generate_workload(wl);

  model::OnlineScheduler scheduler(tb.host(), tb.nic(), wc, rc, config);
  scheduler.set_observer(&ctx);

  ServeTap serve;
  if (serve_port >= 0) serve.start(ctx, serve_port, refresh_ms);
  const model::OnlineReport report = scheduler.run(tasks);
  serve.finish(linger_ms);

  std::printf(
      "online: %d tasks, policy %s, seed %llu\n"
      "makespan %.2f s, aggregate %.2f Gbps, mean turnaround %.2f s, "
      "%d migrations\n",
      tasks_n, model::to_string(config.policy).c_str(),
      static_cast<unsigned long long>(seed), report.makespan / 1e9,
      report.aggregate, report.mean_turnaround / 1e9,
      report.total_migrations);
  return 0;
}

int cmd_fio(io::Testbed& tb, obs::Context& ctx,
            const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "fio: missing job file path\n");
    return kExitUsage;
  }
  io::DeviceSet set;
  set.nic = &tb.nic();
  set.ssds = tb.ssds();
  const io::JobFile file = io::load_job_file(args.front());
  const auto jobs = io::resolve_jobs(file, set);

  io::FioRunner fio(tb.host());
  fio.set_observer(&ctx);
  const auto results = fio.run_concurrent(jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-20s engine=%-10s node=%d streams=%d  %8.3f Gbps\n",
                file.jobs[i].name.c_str(), jobs[i].engine.c_str(),
                jobs[i].cpu_node, jobs[i].num_streams,
                results[i].aggregate);
  }
  if (results.size() > 1) {
    std::printf("%-20s %53.3f Gbps\n", "combined",
                io::combined_aggregate(results));
  }
  return 0;
}

int cmd_faults(io::Testbed& tb, obs::Context& ctx,
               const std::vector<std::string>& args) {
  const std::uint64_t seed = u64_flag(args, "--seed", 42);
  const int events = int_flag(args, "--events", 4);
  if (events < 1) usage_error("--events wants a positive count");

  faults::RandomPlanConfig plan_config;
  plan_config.seed = seed;
  plan_config.num_nodes = tb.machine().num_nodes();
  plan_config.num_devices = 1 + static_cast<int>(tb.ssds().size());
  plan_config.num_events = events;
  faults::FaultPlan plan = faults::FaultPlan::random(plan_config);
  std::printf("fault plan (seed %llu, %d events):\n%s",
              static_cast<unsigned long long>(seed), events,
              plan.to_string().c_str());

  faults::FaultInjector injector(tb.machine(), std::move(plan));
  injector.set_observer(&ctx);
  injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                           tb.nic().fault_resources());
  for (const io::PcieDevice* ssd : tb.ssds()) {
    injector.register_device(ssd->name(), ssd->attach_node(),
                             ssd->fault_resources());
  }

  std::vector<io::FioJob> jobs;
  std::vector<std::string> names;
  const std::string jobfile = flag_value(args, "--jobfile", "");
  if (!jobfile.empty()) {
    io::DeviceSet set;
    set.nic = &tb.nic();
    set.ssds = tb.ssds();
    const io::JobFile file = io::load_job_file(jobfile);
    jobs = io::resolve_jobs(file, set);
    for (const auto& job : file.jobs) names.push_back(job.name);
  } else {
    io::FioJob job;
    job.devices = {&tb.nic()};
    job.engine = io::kRdmaRead;
    job.cpu_node = 2;
    job.num_streams = 4;
    job.bytes_per_stream = 40 * sim::kGiB;
    jobs.push_back(job);
    names.emplace_back("degraded-rdma");
  }
  // Degraded-mode runs need a per-attempt budget; leave explicit jobfile
  // timeouts alone but give timeout-less jobs a 30 s one so stalls abort
  // and retry instead of hanging the stream forever.
  for (io::FioJob& job : jobs) {
    if (job.retry.timeout <= 0.0) job.retry.timeout = 30.0e9;
  }

  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  fio.set_observer(&ctx);
  const auto results = fio.run_concurrent(jobs);
  std::printf("\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const io::FioResult& r = results[i];
    std::printf("%-20s engine=%-10s node=%d  %8.3f Gbps  %s"
                " (retries %d, aborted %d/%zu)\n",
                names[i].c_str(), jobs[i].engine.c_str(), jobs[i].cpu_node,
                r.aggregate, r.degraded ? "DEGRADED" : "clean",
                r.total_retries, r.aborted_streams, r.streams.size());
    for (std::size_t s = 0; s < r.streams.size(); ++s) {
      const io::FioStreamStats& st = r.streams[s];
      std::printf("  stream %zu: mem node %d  %7.3f Gbps  %6.1f GiB  %s\n",
                  s, st.mem_node, st.avg_rate,
                  static_cast<double>(st.bytes_moved) /
                      static_cast<double>(sim::kGiB),
                  sim::to_string(st.outcome).c_str());
    }
  }
  std::printf("\napplied fault transitions:\n%s",
              injector.trace_to_string().c_str());
  return 0;
}

/// The fleet serving core (src/fleet): a multi-tenant request storm over
/// N simulated DL585 hosts. Strict flag parsing: anything left in `args`
/// after the known flags are consumed is a usage error — this command is
/// the template for scripting against exit codes, so typos must not
/// silently become defaults.
int cmd_fleet(obs::Context& ctx, std::vector<std::string>& args) {
  const int hosts = take_int(args, "--hosts", 4);
  const int tenants = take_int(args, "--tenants", 3);
  const double rate = take_double(args, "--rate", 900.0);
  const std::uint64_t seed = take_u64(args, "--seed", 42);
  const double duration_s = take_double(args, "--duration", 4.0);
  const int queue_depth = take_int(args, "--queue-depth", 0);
  const double deadline_ms = take_double(args, "--deadline-ms", 0.0);
  const std::string plan_path = take_flag(args, "--plan");
  const bool print_plan = take_switch(args, "--print-plan");
  const int serve_port = take_int(args, "--serve-port", -1);
  const int refresh_ms = take_int(args, "--refresh-ms", 250);
  const int linger_ms = take_int(args, "--linger-ms", 0);
  const bool scale = take_switch(args, "--scale");
  const double batch_window_ms = take_double(args, "--batch-window", -1.0);
  const std::string service = take_flag(args, "--service");
  const std::string placement = take_flag(args, "--placement");
  if (!args.empty()) {
    usage_error("fleet: unknown option '" + args.front() + "'");
  }
  if (hosts < 1) usage_error("--hosts wants a positive count");
  if (tenants < 1) usage_error("--tenants wants a positive count");
  if (rate <= 0.0) usage_error("--rate wants a positive req/s");
  if (duration_s <= 0.0) usage_error("--duration wants positive seconds");
  if (deadline_ms < 0.0) usage_error("--deadline-ms wants >= 0");
  if (serve_port > 65535) usage_error("--serve-port wants a port <= 65535");
  if (linger_ms < 0) usage_error("--linger-ms wants >= 0");
  if (!service.empty() && service != "fluid" && service != "coarse") {
    usage_error("--service wants 'fluid' or 'coarse'");
  }
  if (!placement.empty() && placement != "least-loaded" &&
      placement != "class-spread") {
    usage_error("--placement wants 'least-loaded' or 'class-spread'");
  }

  // --scale swaps in the scale scenario (batched + coarse +
  // class-spread); the individual flags then override either scenario's
  // defaults.
  fleet::StormScenario storm =
      scale ? fleet::make_scale_storm(hosts, tenants, rate, seed,
                                      duration_s * 1e9)
            : fleet::make_storm(hosts, tenants, rate, seed,
                                duration_s * 1e9);
  if (queue_depth > 0) storm.config.queue_depth = queue_depth;
  if (deadline_ms > 0.0) storm.config.deadline = deadline_ms * 1e6;
  if (batch_window_ms >= 0.0) {
    storm.config.batch_window = batch_window_ms * 1e6;
  }
  if (!service.empty()) {
    storm.config.service_model = service == "coarse"
                                     ? fleet::ServiceModel::kCoarse
                                     : fleet::ServiceModel::kFluid;
  }
  if (!placement.empty()) {
    storm.config.placement = placement == "class-spread"
                                 ? fleet::PlacementPolicy::kClassSpread
                                 : fleet::PlacementPolicy::kLeastLoaded;
  }
  if (!plan_path.empty()) {
    // Replaces the built-in crash/recover schedule; exit 3 when the file
    // is unreadable, 4 when it does not parse (docs/FORMATS.md section 6).
    storm.plan = faults::parse_fault_plan(read_file(plan_path));
  }
  if (print_plan) {
    std::printf("fault plan:\n%s\n", storm.plan.to_string().c_str());
  }

  fleet::FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(std::move(storm.plan));
  sim.set_observer(&ctx);

  // --serve-port: expose the run's rolling telemetry snapshot over HTTP
  // for the duration of the storm (ServeTap above); --linger-ms keeps the
  // endpoint up after the drain.
  ServeTap serve;
  if (serve_port >= 0) serve.start(ctx, serve_port, refresh_ms);

  const fleet::FleetReport report = sim.run();

  serve.finish(linger_ms);
  std::printf(
      "fleet: %d hosts, %d tenants, %.0f req/s offered, seed %llu, "
      "%.1f s horizon\n\n%s",
      hosts, tenants, rate, static_cast<unsigned long long>(seed),
      duration_s, report.summary().c_str());
  return 0;
}

/// `serve`: the standing-telemetry counterpart of `fleet --serve-port`.
/// Runs `--rounds` storm rounds back to back (seed advancing per round)
/// with the live tap attached the whole time, so /metrics and /report
/// roll forward across rounds; then lingers `--linger-ms` before
/// shutting the endpoint down.
int cmd_serve(obs::Context& ctx, std::vector<std::string>& args) {
  const int port = take_int(args, "--port", 0);
  const int refresh_ms = take_int(args, "--refresh-ms", 250);
  const int rounds = take_int(args, "--rounds", 3);
  const int linger_ms = take_int(args, "--linger-ms", 0);
  const int hosts = take_int(args, "--hosts", 4);
  const int tenants = take_int(args, "--tenants", 3);
  const double rate = take_double(args, "--rate", 900.0);
  const std::uint64_t seed = take_u64(args, "--seed", 42);
  const double duration_s = take_double(args, "--duration", 2.0);
  if (!args.empty()) {
    usage_error("serve: unknown option '" + args.front() + "'");
  }
  if (port < 0 || port > 65535) usage_error("--port wants 0..65535");
  if (rounds < 1) usage_error("--rounds wants a positive count");
  if (linger_ms < 0) usage_error("--linger-ms wants >= 0");
  if (hosts < 1) usage_error("--hosts wants a positive count");
  if (tenants < 1) usage_error("--tenants wants a positive count");
  if (rate <= 0.0) usage_error("--rate wants a positive req/s");
  if (duration_s <= 0.0) usage_error("--duration wants positive seconds");

  obs::TelemetryHub hub;
  obs::TelemetryTap tap(hub, &ctx.metrics, refresh_ms);
  obs::VisitorSink tap_sink(tap);
  obs::TeeSink tee;
  obs::TraceSink* const prev_sink = ctx.trace.sink();
  tee.add(prev_sink);  // add() ignores nullptr
  tee.add(&tap_sink);
  ctx.trace.set_sink(&tee);

  obs::TelemetryServer server(hub);
  server.start(port);
  std::printf("serving telemetry on http://127.0.0.1:%d"
              " (GET /metrics /report /healthz), refresh %d ms\n",
              server.port(), refresh_ms);
  std::fflush(stdout);

  for (int round = 0; round < rounds; ++round) {
    fleet::StormScenario storm = fleet::make_storm(
        hosts, tenants, rate, seed + static_cast<std::uint64_t>(round),
        duration_s * 1e9);
    fleet::FleetSim sim(storm.config, storm.tenants);
    sim.set_fault_plan(std::move(storm.plan));
    sim.set_observer(&ctx);
    const fleet::FleetReport report = sim.run();
    tap.flush();  // round boundary is always scrapeable
    std::printf("round %d/%d: %lld submitted, %lld completed, "
                "accepted p99 %.1f ms / p99.9 %.1f ms (generation %llu)\n",
                round + 1, rounds, report.submitted, report.completed,
                report.accepted_p99 / 1e6, report.accepted_p999 / 1e6,
                static_cast<unsigned long long>(hub.generation()));
    std::fflush(stdout);
  }
  if (linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  server.stop();
  ctx.trace.set_sink(prev_sink);
  std::printf("served %llu records across %d rounds, %llu refreshes\n",
              static_cast<unsigned long long>(tap.records_seen()), rounds,
              static_cast<unsigned long long>(hub.generation()));
  return 0;
}

/// The seeded workload behind the default `report` run: a clean
/// characterization (the paper's class tables) followed by the same
/// degraded rdma-read job `faults` runs, so the report has a critical
/// path, contention and a fault audit worth reading. Everything lands in
/// the context's recorder/registry; the caller analyzes the capture.
model::HostModel run_report_workload(io::Testbed& tb, obs::Context& ctx,
                                     std::uint64_t seed, int events,
                                     int reps) {
  model::CharacterizeConfig characterize;
  characterize.iomodel.repetitions = reps;
  characterize.iomodel.obs = &ctx;
  model::HostModel host_model = model::characterize_host(tb.host(),
                                                         characterize);

  faults::RandomPlanConfig plan_config;
  plan_config.seed = seed;
  plan_config.num_nodes = tb.machine().num_nodes();
  plan_config.num_devices = 1 + static_cast<int>(tb.ssds().size());
  plan_config.num_events = events;
  faults::FaultInjector injector(tb.machine(),
                                 faults::FaultPlan::random(plan_config));
  injector.set_observer(&ctx);
  injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                           tb.nic().fault_resources());
  for (const io::PcieDevice* ssd : tb.ssds()) {
    injector.register_device(ssd->name(), ssd->attach_node(),
                             ssd->fault_resources());
  }

  io::FioJob job;
  job.devices = {&tb.nic()};
  job.engine = io::kRdmaRead;
  job.cpu_node = 2;
  job.num_streams = 4;
  job.bytes_per_stream = 40 * sim::kGiB;
  job.retry.timeout = 30.0e9;  // per-attempt budget: abort + retry stalls
  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  fio.set_observer(&ctx);
  fio.run_concurrent({job});
  injector.restore();
  return host_model;
}

int cmd_report(io::Testbed& tb, obs::Context& ctx, obs::MemorySink* capture,
               const std::vector<std::string>& args) {
  const std::string trace_in = flag_value(args, "--trace-in", "");
  const std::string format = flag_value(args, "--format", "md");
  if (format != "md" && format != "json") {
    usage_error("--format must be md or json, got '" + format + "'");
  }
  model::RunReportOptions options;
  options.top_contended = int_flag(args, "--top", 5);
  if (options.top_contended < 1) usage_error("--top wants a positive count");

  model::RunReport report;
  if (!trace_in.empty()) {
    // Trace-only report over a saved capture: no class table, no
    // counters, but the full analysis (span summary, critical path,
    // contention, fault audit) of whatever run wrote the file. The
    // capture streams through the analyzer pass by pass — never
    // materialized, so file size is not a constraint.
    obs::JsonlFileSource source = open_trace_source(trace_in);
    report = model::build_run_report("report --trace-in " + trace_in,
                                     nullptr, source, nullptr);
  } else {
    const std::uint64_t seed = u64_flag(args, "--seed", 42);
    const int events = int_flag(args, "--events", 4);
    const int reps = int_flag(args, "--reps", 12);
    if (events < 1) usage_error("--events wants a positive count");
    if (reps < 1) usage_error("--reps wants a positive count");
    const model::HostModel host_model =
        run_report_workload(tb, ctx, seed, events, reps);
    const std::string command =
        "report --seed " + std::to_string(seed) + " --events " +
        std::to_string(events) + " --reps " + std::to_string(reps);
    report = model::build_run_report(command, &host_model, capture->events,
                                     &ctx.metrics);
  }

  // --diff OLD.json: render the current report's diffable surface and
  // print the deltas against a previously saved --format json report
  // instead of the report itself.
  const std::string diff_in = flag_value(args, "--diff", "");
  std::string text;
  if (!diff_in.empty()) {
    const model::ReportSummary before =
        model::parse_report_json(read_file(diff_in));
    const model::ReportSummary after =
        model::parse_report_json(model::render_json(report, options));
    text = model::diff_reports(before, after);
  } else {
    text = format == "md" ? model::render_markdown(report, options)
                          : model::render_json(report, options);
  }
  const std::string out = flag_value(args, "--out", "");
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream file(out, std::ios::binary);
    if (!file) {
      throw StatusError(StatusCode::kNoFile, "cannot write '" + out + "'");
    }
    file << text;
  }
  return 0;
}

int cmd_export(const std::vector<std::string>& args) {
  const std::string trace_in = flag_value(args, "--trace-in", "");
  const std::string chrome = flag_value(args, "--chrome", "");
  const std::string folded = flag_value(args, "--folded", "");
  const std::string fold_weight = flag_value(args, "--fold-weight", "self");
  const std::string metrics_in = flag_value(args, "--metrics-in", "");
  const std::string prom = flag_value(args, "--prom", "");
  if (trace_in.empty() && metrics_in.empty()) {
    usage_error("export wants --trace-in FILE and/or --metrics-in FILE");
  }
  if (fold_weight != "wall" && fold_weight != "self") {
    usage_error("--fold-weight must be wall or self, got '" + fold_weight +
                "'");
  }
  if (!trace_in.empty()) {
    if (chrome.empty() && folded.empty()) {
      usage_error("--trace-in wants --chrome FILE and/or --folded FILE");
    }
    // Streaming passes over the file; the capture never lands in
    // memory, so exports scale to any trace the disk holds.
    obs::JsonlFileSource source = open_trace_source(trace_in);
    if (!chrome.empty()) {
      std::ofstream file(chrome, std::ios::binary);
      if (!file) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + chrome + "'");
      }
      obs::export_chrome_trace(source, file);
    }
    if (!folded.empty()) {
      std::ofstream file(folded, std::ios::binary);
      if (!file) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + folded + "'");
      }
      const obs::FoldWeight weight = fold_weight == "wall"
                                         ? obs::FoldWeight::kWall
                                         : obs::FoldWeight::kSelf;
      const obs::FoldStats stats =
          obs::export_folded_stacks(source, file, weight);
      std::printf("folded %llu records into %llu stacks "
                  "(%llu spans, peak %llu open) -> %s\n",
                  static_cast<unsigned long long>(stats.records),
                  static_cast<unsigned long long>(stats.stacks),
                  static_cast<unsigned long long>(stats.spans),
                  static_cast<unsigned long long>(stats.peak_open_spans),
                  folded.c_str());
    }
  }
  if (!metrics_in.empty()) {
    if (prom.empty()) usage_error("--metrics-in wants --prom FILE");
    const obs::MetricsRegistry registry =
        obs::parse_metrics_json(read_file(metrics_in));
    std::ofstream file(prom, std::ios::binary);
    if (!file) {
      throw StatusError(StatusCode::kNoFile, "cannot write '" + prom + "'");
    }
    obs::export_prometheus(registry, file);
  }
  return 0;
}

int cmd_metrics(const std::vector<std::string>& args) {
  const std::string in = flag_value(args, "--in", "");
  if (in.empty()) {
    // No capture file: print the registry of metric names the pipeline
    // can emit, so scripts know what to look for in --metrics-out files.
    std::printf("%-28s %-10s %s\n", "metric", "kind", "description");
    for (const obs::MetricInfo& m : obs::known_metrics()) {
      std::printf("%-28s %-10s %s\n", m.name, m.kind, m.help);
    }
    return 0;
  }
  const obs::MetricsRegistry registry = obs::parse_metrics_json(read_file(in));
  if (registry.empty()) {
    std::printf("no metrics recorded in %s\n", in.c_str());
    return 0;
  }
  std::printf("%s", registry.summary().c_str());
  return 0;
}

int cmd_synth_trace(const std::vector<std::string>& args) {
  const std::string out = flag_value(args, "--out", "");
  if (out.empty()) usage_error("synth-trace wants --out FILE");
  obs::SyntheticTraceConfig config;
  config.records = u64_flag(args, "--records", config.records);
  config.concurrent_streams =
      int_flag(args, "--streams", config.concurrent_streams);
  config.seed = u64_flag(args, "--seed", config.seed);
  config.depth = int_flag(args, "--depth", config.depth);
  config.fanout = int_flag(args, "--fanout", config.fanout);
  if (config.concurrent_streams < 1) {
    usage_error("--streams wants a positive count");
  }
  if (config.depth < 1) usage_error("--depth wants a positive depth");
  if (config.fanout < 1) usage_error("--fanout wants a positive count");

  std::ofstream file(out, std::ios::binary);
  if (!file) {
    throw StatusError(StatusCode::kNoFile, "cannot write '" + out + "'");
  }
  // One generator pass straight into the serializer: records are written
  // as produced, so a 10^8-record capture costs the same memory as a
  // 10-record one.
  obs::JsonlSink sink(file);
  obs::SinkVisitor writer(sink);
  obs::SyntheticTraceSource source(config);
  source.stream(writer);
  std::printf("wrote %llu synthetic records to %s\n",
              static_cast<unsigned long long>(
                  config.records < 8 ? 8 : config.records),
              out.c_str());
  return 0;
}

}  // namespace

namespace {

/// Dispatches the subcommand with observability wired through the whole
/// measurement pipeline; returns the exit code or -1 for unknown commands.
/// `observing` gates the solver's per-solve timer (the one instrumentation
/// hook with a wall-clock read on a hot path) so runs without --trace-out/
/// --metrics-out cost nothing measurable.
int dispatch(const std::string& cmd, std::vector<std::string>& args,
             obs::Context& ctx, bool observing, obs::MemorySink* capture) {
  if (cmd == "metrics") return cmd_metrics(args);
  if (cmd == "classes") return cmd_classes(args);
  if (cmd == "export") return cmd_export(args);
  if (cmd == "synth-trace") return cmd_synth_trace(args);
  // `fleet` and `serve` build their own hosts (one testbed per fleet
  // host).
  if (cmd == "fleet") return cmd_fleet(ctx, args);
  if (cmd == "serve") return cmd_serve(ctx, args);

  io::Testbed tb = io::Testbed::dl585();
  if (observing) tb.machine().solver().set_observer(&ctx);
  if (cmd == "report") return cmd_report(tb, ctx, capture, args);
  if (cmd == "hardware") return cmd_hardware(tb);
  if (cmd == "stream-matrix") return cmd_stream_matrix(tb);
  if (cmd == "iomodel") return cmd_iomodel(tb, ctx, args);
  if (cmd == "demo") return cmd_demo(tb, args);
  if (cmd == "fio") return cmd_fio(tb, ctx, args);
  if (cmd == "faults") return cmd_faults(tb, ctx, args);
  if (cmd == "characterize") return cmd_characterize(tb, ctx, args);
  if (cmd == "replay") return cmd_replay(tb, ctx, args);
  if (cmd == "online") return cmd_online(tb, ctx, args);
  if (cmd == "validate") return cmd_validate(tb, args);
  if (cmd == "asymmetry") return cmd_asymmetry(tb, args);
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }

  try {
    // Global observability options, valid on every subcommand.
    const std::string trace_out = take_flag(args, "--trace-out");
    const std::string metrics_out = take_flag(args, "--metrics-out");
    const std::string prom_out = take_flag(args, "--prom-out");
    const std::string chrome_out = take_flag(args, "--chrome-out");
    const bool deterministic = take_switch(args, "--trace-deterministic");

    obs::Context ctx;
    ctx.trace.set_deterministic(deterministic);

    // The Chrome exporter and the default `report` run consume the
    // record stream in process, so those paths capture into a MemorySink
    // — teed with the file serializer when --trace-out is also given.
    const bool need_capture =
        !chrome_out.empty() ||
        (cmd == "report" && flag_value(args, "--trace-in", "").empty());
    std::ofstream trace_file;
    std::unique_ptr<obs::TraceSink> file_sink;
    obs::MemorySink capture;
    obs::TeeSink tee;
    if (!trace_out.empty()) {
      trace_file.open(trace_out, std::ios::binary);
      if (!trace_file) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + trace_out + "'");
      }
      const bool csv = trace_out.size() >= 4 &&
                       trace_out.compare(trace_out.size() - 4, 4, ".csv") == 0;
      if (csv) {
        file_sink = std::make_unique<obs::CsvSink>(trace_file);
      } else {
        file_sink = std::make_unique<obs::JsonlSink>(trace_file);
      }
    }
    obs::TraceSink* sink = nullptr;
    if (file_sink != nullptr && need_capture) {
      tee.add(file_sink.get());
      tee.add(&capture);
      sink = &tee;
    } else if (file_sink != nullptr) {
      sink = file_sink.get();
    } else if (need_capture) {
      sink = &capture;
    }
    if (sink != nullptr) ctx.trace.set_sink(sink);

    const bool observing = sink != nullptr || !metrics_out.empty() ||
                           !prom_out.empty();
    const int rc = dispatch(cmd, args, ctx, observing,
                            need_capture ? &capture : nullptr);
    if (rc < 0) {
      std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
      return usage();
    }
    if (!metrics_out.empty()) {
      std::ofstream metrics_file(metrics_out, std::ios::binary);
      if (!metrics_file) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + metrics_out + "'");
      }
      metrics_file << ctx.metrics.to_json() << "\n";
    }
    if (!prom_out.empty()) {
      std::ofstream prom_file(prom_out, std::ios::binary);
      if (!prom_file) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + prom_out + "'");
      }
      obs::export_prometheus(ctx.metrics, prom_file);
    }
    if (!chrome_out.empty()) {
      std::ofstream chrome_file(chrome_out, std::ios::binary);
      if (!chrome_file) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + chrome_out + "'");
      }
      obs::export_chrome_trace(capture.events, chrome_file);
    }
    return rc;
  } catch (const StatusError& e) {
    // Library and CLI errors carry their exit code: 2 usage, 3 missing or
    // unwritable file, 4 malformed input.
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return e.status().exit_code();
  } catch (const std::invalid_argument& e) {
    // Parsers (jobfile, host model, trace) throw invalid_argument with a
    // line number attached — malformed input, not a tool failure.
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return kExitParse;
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return kExitParse;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return kExitRuntime;
  }
}
