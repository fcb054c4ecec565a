// numaio command-line tool — the "first NUMA characterization software for
// bulk data I/O tasks" the paper claims as its third contribution, in the
// spirit of the numactl/numademo family it extends (§II-B, §V-B).
// `numaio_cli help` (usage() below) lists every subcommand and its flags.
//
// Every subcommand parses its flags through one strict parser (Args): each
// flag is consumed as it is read, and whatever is left afterwards — an
// unknown option, a stray operand — is a usage error (exit 2), so a typo
// never silently becomes a default.
//
// `report --trace-in` and `export --trace-in` stream the JSONL capture
// through the src/obs record-stream core — the file is re-read pass by
// pass and never materialized, so they work on arbitrarily large traces.
//
// The global options (--trace-out, --metrics-out, --prom-out, --chrome-out,
// --trace-deterministic) thread the observability layer of src/obs through
// the measurement pipeline of every subcommand whose library calls take a
// context; `hardware`, `stream-matrix`, `demo` and `validate` accept them
// but trace no records.
//
// Everything runs against the simulated DL585 testbed; on real hardware
// the same library calls would sit on top of libnuma (see DESIGN.md).
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
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
      "        [--placement least-loaded|class-spread] [live telemetry]\n"
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
      "                                   completion alarms)\n"
      "  faults [--seed S] [--events N] [--jobfile FILE]\n"
      "                                   run I/O under an injected fault plan\n"
      "  replay <trace.csv> [live telemetry]\n"
      "                                   replay a transfer trace\n"
      "  online [--policy all-local|round-robin|model-spread|model-adaptive]\n"
      "         [--tasks N] [--seed S] [--mean-arrival SECONDS] [--reps N]\n"
      "         [live telemetry]\n"
      "                                   place a seeded open-loop workload\n"
      "                                   with the online scheduler (paper\n"
      "                                   section VI)\n"
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
      "live telemetry (fleet, replay, online):\n"
      "  --serve-port P [--refresh-ms MS] [--linger-ms MS]\n"
      "                                   serve the run's telemetry like\n"
      "                                   `serve` (0 = ephemeral port)\n"
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
      "  (hardware, stream-matrix, demo and validate trace no records)\n"
      "every subcommand rejects an unknown option, a flag without its value\n"
      "and an out-of-range or out-of-set value with exit 2\n"
      "exit codes: 0 ok, 1 runtime failure, 2 usage, 3 unreadable file,\n"
      "            4 malformed input file\n");
  return kExitUsage;
}

/// The one number parser behind every numeric flag: the whole of `text`
/// must be one T in the shared number grammar (obs::text::parse_number,
/// which also keeps out "inf" and "nan": a NaN passes every range check,
/// as it compares false), or the usage error names the flag.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const std::errc ec = obs::text::parse_number(text, value);
  if (ec == std::errc()) return value;
  if (std::is_floating_point_v<T> && ec == std::errc::result_out_of_range) {
    usage_error(flag + " wants a finite number, got '" + text + "'");
  }
  const char* const kind = std::is_floating_point_v<T> ? "a number"
                           : std::is_signed_v<T>       ? "an integer"
                                                       : "an unsigned integer";
  usage_error(flag + " wants " + kind + ", got '" + text + "'");
}

/// One subcommand's arguments, parsed strictly. Every take*() consumes the
/// flag it reads together with its value, so once a command has read all
/// of its flags, finish() rejects whatever is left.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  /// `flag VALUE` as T (int, double, std::uint64_t or std::string), or
  /// `fallback` when the flag is absent.
  template <typename T>
  T take(const std::string& flag, T fallback) {
    const std::optional<std::string> text = take_value(flag);
    if (!text) return fallback;
    if constexpr (std::is_same_v<T, std::string>) {
      return *text;
    } else {
      return parse_number<T>(flag, *text);
    }
  }

  /// A count flag: `flag N` with N >= 1, or `fallback` when absent.
  int take_count(const std::string& flag, int fallback) {
    const int count = take(flag, fallback);
    if (count < 1) usage_error(flag + " wants a positive count");
    return count;
  }

  /// A valueless boolean flag; returns whether it was present.
  bool take_switch(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return false;
    args_.erase(it);
    return true;
  }

  /// `flag VALUE` where VALUE must be one of `choices`.
  std::string take_choice(const std::string& flag,
                          std::initializer_list<const char*> choices,
                          const std::string& fallback) {
    const std::optional<std::string> text = take_value(flag);
    if (!text) return fallback;
    std::string wanted;
    for (const char* choice : choices) {
      if (*text == choice) return *text;
      if (!wanted.empty()) wanted += "|";
      wanted += choice;
    }
    usage_error(flag + " wants " + wanted + ", got '" + *text + "'");
  }

  /// The leading operand (a file path); call after taking every flag.
  std::string positional(const std::string& what) {
    if (args_.empty() || is_flag(args_.front())) {
      finish();  // an unknown option outranks the missing operand
      usage_error("missing " + what);
    }
    std::string operand = std::move(args_.front());
    args_.erase(args_.begin());
    return operand;
  }

  /// Rejects anything the command did not take: an unknown option, a
  /// repeated flag or a stray operand.
  void finish() const {
    if (!args_.empty()) {
      usage_error("unknown argument '" + args_.front() + "'");
    }
  }

 private:
  static bool is_flag(const std::string& arg) {
    return arg.rfind("--", 0) == 0;
  }

  std::optional<std::string> take_value(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return std::nullopt;
    if (it + 1 == args_.end() || is_flag(*(it + 1))) {
      usage_error(flag + " wants a value");
    }
    std::string value = std::move(*(it + 1));
    args_.erase(it, it + 2);
    return value;
  }

  std::vector<std::string> args_;
};

/// Range check for a flag naming a NUMA node.
void check_node(const std::string& flag, int node, int num_nodes) {
  if (node < 0 || node >= num_nodes) {
    usage_error(flag + " wants a node in 0.." + std::to_string(num_nodes - 1) +
                ", got " + std::to_string(node));
  }
}

/// Opens `path` for reading, or throws StatusError(kNoFile) with the OS
/// reason (exit 3).
std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw StatusError(StatusCode::kNoFile, "cannot open '" + path + "': " +
                                               std::strerror(errno));
  }
  return in;
}

/// Opens `path` for writing, or throws StatusError(kNoFile) (exit 3).
std::ofstream open_output(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw StatusError(StatusCode::kNoFile, "cannot write '" + path + "'");
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ostringstream text;
  text << open_input(path).rdbuf();
  return text.str();
}

/// Streaming source over a --trace-in capture. Openability is probed up
/// front so a missing file still exits 3 (kNoFile) like every other
/// input; after that the source re-reads the file pass by pass and the
/// capture is never held in memory.
obs::JsonlFileSource open_trace_source(const std::string& path) {
  open_input(path);
  return obs::JsonlFileSource(path);
}

int cmd_hardware(io::Testbed& tb, const Args& args) {
  args.finish();
  std::printf("%s\n", tb.host().hardware_report().c_str());
  std::printf("%s\n", nm::render_hwloc(tb.machine().topology()).c_str());
  std::printf("%s", nm::render_interconnect(tb.machine().topology()).c_str());
  std::printf("\n%s",
              nm::render_slit(nm::slit_table(tb.machine().topology())).c_str());
  return 0;
}

int cmd_stream_matrix(io::Testbed& tb, const Args& args) {
  args.finish();
  const auto m = mem::stream_matrix(tb.host());
  std::printf("%s", model::format_matrix(m).c_str());
  return 0;
}

int cmd_iomodel(io::Testbed& tb, obs::Context& ctx, Args& args) {
  const int target = args.take("--target", 7);
  const std::string dir =
      args.take_choice("--direction", {"read", "write"}, "write");
  args.finish();
  check_node("--target", target, tb.machine().num_nodes());
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

int cmd_demo(io::Testbed& tb, Args& args) {
  const int node = args.take("--node", 7);
  args.finish();
  check_node("--node", node, tb.machine().num_nodes());
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

int cmd_characterize(io::Testbed& tb, obs::Context& ctx, Args& args) {
  model::CharacterizeConfig config;
  config.iomodel.repetitions = args.take_count("--reps", 100);
  config.iomodel.obs = &ctx;
  const std::string out = args.take<std::string>("--out", "");
  args.finish();
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
  if (!out.empty()) {
    model::save_model(host_model, out);  // StatusError(kNoFile) on failure
    std::printf("saved to %s\n", out.c_str());
  }
  return 0;
}

int cmd_classes(Args& args) {
  const std::string in = args.take<std::string>("--in", "");
  const int target = args.take("--target", 7);
  const std::string dir =
      args.take_choice("--direction", {"read", "write"}, "read");
  args.finish();
  if (in.empty()) usage_error("--in FILE is required");
  const model::HostModel host_model = model::load_model(in);
  check_node("--target", target, host_model.num_nodes);
  const auto direction = dir == "write" ? model::Direction::kDeviceWrite
                                        : model::Direction::kDeviceRead;
  std::printf("host %s, device-%s model of node %d:\n",
              host_model.host_name.c_str(), dir.c_str(), target);
  print_classes(host_model.classes_for(target, direction));
  return 0;
}

int cmd_asymmetry(io::Testbed& tb, obs::Context& ctx, Args& args) {
  const int target = args.take("--target", 7);
  const double min_ratio = args.take("--min-ratio", 1.15);
  args.finish();
  check_node("--target", target, tb.machine().num_nodes());
  model::IoModelConfig config;
  config.obs = &ctx;
  const auto m = model::iomodel_matrix(tb.host(), target, config);
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

int cmd_validate(io::Testbed& tb, Args& args) {
  model::ValidateConfig config;
  config.iomodel_repetitions = args.take_count("--reps", 100);
  args.finish();
  const model::ValidationReport report =
      model::validate_methodology(tb, config);
  std::printf("%s", report.to_string().c_str());
  return report.all_passed() ? 0 : 1;
}

/// Live-telemetry endpoint settings: `--serve-port` on fleet, replay and
/// online, `--port` on serve.
struct ServeOptions {
  int port = -1;  ///< < 0: no endpoint.
  int refresh_ms = 250;
  int linger_ms = 0;
};

ServeOptions take_serve_options(Args& args, const std::string& port_flag,
                                int default_port) {
  ServeOptions options;
  options.port = args.take(port_flag, default_port);
  options.refresh_ms = args.take("--refresh-ms", options.refresh_ms);
  options.linger_ms = args.take("--linger-ms", options.linger_ms);
  if (options.port > 65535) usage_error(port_flag + " wants a port <= 65535");
  if (options.linger_ms < 0) usage_error("--linger-ms wants >= 0");
  return options;
}

/// The live telemetry endpoint shared by fleet, replay, online and serve.
/// start() tees a refresh-cadenced tap (obs/serve.h) with whatever sink
/// main() wired — file serializer, capture, or none — brings the HTTP
/// server up and prints (and flushes) the endpoint line before the
/// workload starts, so scripts can scrape mid-run. finish() flushes the
/// final snapshot, optionally lingers so late scrapers still land, then
/// stops the server and restores the previous sink. Both are no-ops when
/// no port was asked for.
class ServeTap {
 public:
  ~ServeTap() {
    // Belt and braces: a StatusError thrown mid-run must not leave the
    // context pointed at our dying tee.
    options_.linger_ms = 0;
    finish();
  }

  void start(obs::Context& ctx, const ServeOptions& options) {
    if (options.port < 0) return;
    ctx_ = &ctx;
    options_ = options;
    tap_ = std::make_unique<obs::TelemetryTap>(hub_, &ctx.metrics,
                                               options.refresh_ms);
    tap_sink_ = std::make_unique<obs::VisitorSink>(*tap_);
    prev_sink_ = ctx.trace.sink();
    tee_.add(prev_sink_);  // add() ignores nullptr
    tee_.add(tap_sink_.get());
    ctx.trace.set_sink(&tee_);
    server_.start(options.port);
    std::printf("serving telemetry on http://127.0.0.1:%d"
                " (GET /metrics /report /healthz), refresh %d ms\n",
                server_.port(), options.refresh_ms);
    std::fflush(stdout);
    active_ = true;
  }

  /// Publishes the current state now, whatever the refresh cadence.
  void flush() { tap_->flush(); }

  void finish() {
    if (!active_) return;
    tap_->flush();  // final state stays scrapeable regardless of cadence
    if (options_.linger_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.linger_ms));
    }
    server_.stop();
    ctx_->trace.set_sink(prev_sink_);
    active_ = false;
  }

  std::uint64_t generation() const { return hub_.generation(); }
  std::uint64_t records_seen() const { return tap_->records_seen(); }

 private:
  obs::Context* ctx_ = nullptr;
  ServeOptions options_;
  obs::TelemetryHub hub_;
  obs::TelemetryServer server_{hub_};
  std::unique_ptr<obs::TelemetryTap> tap_;
  std::unique_ptr<obs::VisitorSink> tap_sink_;
  obs::TeeSink tee_;
  obs::TraceSink* prev_sink_ = nullptr;
  bool active_ = false;
};

int cmd_replay(io::Testbed& tb, obs::Context& ctx, Args& args) {
  const ServeOptions serve_options =
      take_serve_options(args, "--serve-port", -1);
  const std::string path = args.positional("trace path");
  args.finish();
  const auto entries = io::parse_trace(read_file(path));
  const auto jobs = io::trace_to_jobs(entries, tb.devices());
  io::FioRunner fio(tb.host());
  fio.set_observer(&ctx);
  ServeTap serve;
  serve.start(ctx, serve_options);
  const auto results = fio.run_timed(jobs);
  serve.finish();
  double total_gib = 0.0;
  sim::Ns last_end = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double gib = static_cast<double>(entries[i].bytes) /
                       static_cast<double>(sim::kGiB);
    std::printf("%8.3fs %-10s node%d %8.1f GiB  %7.2f Gbps\n",
                entries[i].arrival / 1e9, entries[i].engine.c_str(),
                entries[i].cpu_node, gib, results[i].aggregate);
    total_gib += gib;
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
/// offer.
int cmd_online(io::Testbed& tb, obs::Context& ctx, Args& args) {
  const std::string policy = args.take_choice(
      "--policy",
      {"all-local", "round-robin", "model-spread", "model-adaptive"},
      "model-adaptive");
  const int tasks_n = args.take_count("--tasks", 24);
  const std::uint64_t seed = args.take<std::uint64_t>("--seed", 20130601);
  const double mean_arrival_s = args.take("--mean-arrival", 2.0);
  const int reps = args.take_count("--reps", 100);
  const ServeOptions serve_options =
      take_serve_options(args, "--serve-port", -1);
  args.finish();
  if (mean_arrival_s <= 0.0) {
    usage_error("--mean-arrival wants positive seconds");
  }
  model::OnlineConfig config;
  for (const model::OnlinePolicy p :
       {model::OnlinePolicy::kAllLocal, model::OnlinePolicy::kRoundRobin,
        model::OnlinePolicy::kModelSpread,
        model::OnlinePolicy::kModelAdaptive}) {
    if (model::to_string(p) == policy) config.policy = p;
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
  serve.start(ctx, serve_options);
  const model::OnlineReport report = scheduler.run(tasks);
  serve.finish();

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

int cmd_fio(io::Testbed& tb, obs::Context& ctx, Args& args) {
  const std::string path = args.positional("job file path");
  args.finish();
  const io::JobFile file = io::load_job_file(path);
  const auto jobs = io::resolve_jobs(file, tb.devices());

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

/// The seeded random fault plan `faults` and `report` inject: `events`
/// transitions over the testbed's nodes, its NIC and its SSDs.
faults::FaultPlan random_fault_plan(io::Testbed& tb, std::uint64_t seed,
                                    int events) {
  faults::RandomPlanConfig plan_config;
  plan_config.seed = seed;
  plan_config.num_nodes = tb.machine().num_nodes();
  plan_config.num_devices = 1 + static_cast<int>(tb.ssds().size());
  plan_config.num_events = events;
  return faults::FaultPlan::random(plan_config);
}

/// Traces `injector` into `ctx` and registers the testbed's NIC and SSDs.
void attach_devices(faults::FaultInjector& injector, io::Testbed& tb,
                    obs::Context& ctx) {
  injector.set_observer(&ctx);
  injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                           tb.nic().fault_resources());
  for (const io::PcieDevice* ssd : tb.ssds()) {
    injector.register_device(ssd->name(), ssd->attach_node(),
                             ssd->fault_resources());
  }
}

/// The degraded-mode job `faults` and `report` run by default: four
/// rdma-read streams from node 2 with a 30 s per-attempt budget, so
/// stalls abort and retry instead of hanging the stream forever.
io::FioJob degraded_rdma_job(io::Testbed& tb) {
  io::FioJob job;
  job.devices = {&tb.nic()};
  job.engine = io::kRdmaRead;
  job.cpu_node = 2;
  job.num_streams = 4;
  job.bytes_per_stream = 40 * sim::kGiB;
  job.retry.timeout = 30.0e9;
  return job;
}

int cmd_faults(io::Testbed& tb, obs::Context& ctx, Args& args) {
  const std::uint64_t seed = args.take<std::uint64_t>("--seed", 42);
  const int events = args.take_count("--events", 4);
  const std::string jobfile = args.take<std::string>("--jobfile", "");
  args.finish();

  faults::FaultPlan plan = random_fault_plan(tb, seed, events);
  std::printf("fault plan (seed %llu, %d events):\n%s",
              static_cast<unsigned long long>(seed), events,
              faults::render_fault_plan(plan).c_str());
  faults::FaultInjector injector(tb.machine(), std::move(plan));
  attach_devices(injector, tb, ctx);

  std::vector<io::FioJob> jobs;
  std::vector<std::string> names;
  if (!jobfile.empty()) {
    const io::JobFile file = io::load_job_file(jobfile);
    jobs = io::resolve_jobs(file, tb.devices());
    for (const auto& job : file.jobs) names.push_back(job.name);
  } else {
    jobs.push_back(degraded_rdma_job(tb));
    names.emplace_back("degraded-rdma");
  }
  // Degraded-mode runs need a per-attempt budget; leave explicit jobfile
  // timeouts alone but give timeout-less jobs the default job's 30 s.
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

/// The storm shape `fleet` and `serve` share.
struct StormOptions {
  int hosts = 4;
  int tenants = 3;
  double rate = 900.0;
  std::uint64_t seed = 42;
  double duration_s = 0.0;
};

StormOptions take_storm_options(Args& args, double default_duration_s) {
  StormOptions storm;
  storm.hosts = args.take_count("--hosts", storm.hosts);
  storm.tenants = args.take_count("--tenants", storm.tenants);
  storm.rate = args.take("--rate", storm.rate);
  storm.seed = args.take("--seed", storm.seed);
  storm.duration_s = args.take("--duration", default_duration_s);
  if (storm.rate <= 0.0) usage_error("--rate wants a positive req/s");
  if (storm.duration_s <= 0.0) {
    usage_error("--duration wants positive seconds");
  }
  return storm;
}

/// The fleet serving core (src/fleet): a multi-tenant request storm over
/// N simulated DL585 hosts.
int cmd_fleet(obs::Context& ctx, Args& args) {
  const StormOptions shape = take_storm_options(args, 4.0);
  const int queue_depth = args.take("--queue-depth", 0);
  const double deadline_ms = args.take("--deadline-ms", 0.0);
  const std::string plan_path = args.take<std::string>("--plan", "");
  const bool print_plan = args.take_switch("--print-plan");
  const ServeOptions serve_options =
      take_serve_options(args, "--serve-port", -1);
  const bool scale = args.take_switch("--scale");
  const double batch_window_ms = args.take("--batch-window", -1.0);
  const std::string service =
      args.take_choice("--service", {"fluid", "coarse"}, "");
  const std::string placement =
      args.take_choice("--placement", {"least-loaded", "class-spread"}, "");
  args.finish();
  if (deadline_ms < 0.0) usage_error("--deadline-ms wants >= 0");

  // --scale swaps in the scale scenario (batched + coarse +
  // class-spread); the individual flags then override either scenario's
  // defaults.
  fleet::StormScenario storm =
      scale ? fleet::make_scale_storm(shape.hosts, shape.tenants, shape.rate,
                                      shape.seed, shape.duration_s * 1e9)
            : fleet::make_storm(shape.hosts, shape.tenants, shape.rate,
                                shape.seed, shape.duration_s * 1e9);
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
    std::printf("fault plan:\n%s\n",
                faults::render_fault_plan(storm.plan).c_str());
  }

  fleet::FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(std::move(storm.plan));
  sim.set_observer(&ctx);

  // --serve-port: expose the run's rolling telemetry snapshot over HTTP
  // for the duration of the storm; --linger-ms keeps the endpoint up
  // after the drain.
  ServeTap serve;
  serve.start(ctx, serve_options);
  const fleet::FleetReport report = sim.run();
  serve.finish();
  std::printf(
      "fleet: %d hosts, %d tenants, %.0f req/s offered, seed %llu, "
      "%.1f s horizon\n\n%s",
      shape.hosts, shape.tenants, shape.rate,
      static_cast<unsigned long long>(shape.seed), shape.duration_s,
      report.summary().c_str());
  return 0;
}

/// `serve`: the standing-telemetry counterpart of `fleet --serve-port`.
/// Runs `--rounds` storm rounds back to back (seed advancing per round)
/// with the live tap attached the whole time, so /metrics and /report
/// roll forward across rounds; then lingers `--linger-ms` before
/// shutting the endpoint down.
int cmd_serve(obs::Context& ctx, Args& args) {
  const ServeOptions serve_options = take_serve_options(args, "--port", 0);
  const int rounds = args.take_count("--rounds", 3);
  const StormOptions shape = take_storm_options(args, 2.0);
  args.finish();
  if (serve_options.port < 0) usage_error("--port wants 0..65535");

  ServeTap serve;
  serve.start(ctx, serve_options);
  for (int round = 0; round < rounds; ++round) {
    fleet::StormScenario storm = fleet::make_storm(
        shape.hosts, shape.tenants, shape.rate,
        shape.seed + static_cast<std::uint64_t>(round),
        shape.duration_s * 1e9);
    fleet::FleetSim sim(storm.config, storm.tenants);
    sim.set_fault_plan(std::move(storm.plan));
    sim.set_observer(&ctx);
    const fleet::FleetReport report = sim.run();
    serve.flush();  // round boundary is always scrapeable
    std::printf("round %d/%d: %lld submitted, %lld completed, "
                "accepted p99 %.1f ms / p99.9 %.1f ms (generation %llu)\n",
                round + 1, rounds, report.submitted, report.completed,
                report.accepted_p99 / 1e6, report.accepted_p999 / 1e6,
                static_cast<unsigned long long>(serve.generation()));
    std::fflush(stdout);
  }
  std::printf("served %llu records across %d rounds, %llu refreshes\n",
              static_cast<unsigned long long>(serve.records_seen()), rounds,
              static_cast<unsigned long long>(serve.generation()));
  serve.finish();
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

  faults::FaultInjector injector(tb.machine(),
                                 random_fault_plan(tb, seed, events));
  attach_devices(injector, tb, ctx);
  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  fio.set_observer(&ctx);
  fio.run_concurrent({degraded_rdma_job(tb)});
  injector.restore();
  return host_model;
}

int cmd_report(io::Testbed& tb, obs::Context& ctx, obs::MemorySink* capture,
               Args& args) {
  const std::string trace_in = args.take<std::string>("--trace-in", "");
  const std::string format = args.take_choice("--format", {"md", "json"}, "md");
  model::RunReportOptions options;
  options.top_contended = args.take_count("--top", 5);
  const std::uint64_t seed = args.take<std::uint64_t>("--seed", 42);
  const int events = args.take_count("--events", 4);
  const int reps = args.take_count("--reps", 12);
  const std::string diff_in = args.take<std::string>("--diff", "");
  const std::string out = args.take<std::string>("--out", "");
  args.finish();

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
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    open_output(out) << text;
  }
  return 0;
}

int cmd_export(Args& args) {
  const std::string trace_in = args.take<std::string>("--trace-in", "");
  const std::string chrome = args.take<std::string>("--chrome", "");
  const std::string folded = args.take<std::string>("--folded", "");
  const std::string fold_weight =
      args.take_choice("--fold-weight", {"wall", "self"}, "self");
  const std::string metrics_in = args.take<std::string>("--metrics-in", "");
  const std::string prom = args.take<std::string>("--prom", "");
  args.finish();
  if (trace_in.empty() && metrics_in.empty()) {
    usage_error("export wants --trace-in FILE and/or --metrics-in FILE");
  }
  if (!trace_in.empty()) {
    if (chrome.empty() && folded.empty()) {
      usage_error("--trace-in wants --chrome FILE and/or --folded FILE");
    }
    // Streaming passes over the file; the capture never lands in
    // memory, so exports scale to any trace the disk holds.
    obs::JsonlFileSource source = open_trace_source(trace_in);
    if (!chrome.empty()) {
      std::ofstream file = open_output(chrome);
      obs::export_chrome_trace(source, file);
    }
    if (!folded.empty()) {
      std::ofstream file = open_output(folded);
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
    std::ofstream file = open_output(prom);
    obs::export_prometheus(registry, file);
  }
  return 0;
}

int cmd_metrics(Args& args) {
  const std::string in = args.take<std::string>("--in", "");
  args.finish();
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

int cmd_synth_trace(Args& args) {
  obs::SyntheticTraceConfig config;
  const std::string out = args.take<std::string>("--out", "");
  config.records = args.take("--records", config.records);
  config.concurrent_streams =
      args.take_count("--streams", config.concurrent_streams);
  config.seed = args.take("--seed", config.seed);
  config.depth = args.take_count("--depth", config.depth);
  config.fanout = args.take_count("--fanout", config.fanout);
  args.finish();
  if (out.empty()) usage_error("synth-trace wants --out FILE");

  std::ofstream file = open_output(out);
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

/// Dispatches the subcommand with observability wired through the whole
/// measurement pipeline; returns the exit code or -1 for unknown commands.
/// `observing` gates the solver's per-solve timer (the one instrumentation
/// hook with a wall-clock read on a hot path) so runs without --trace-out/
/// --metrics-out cost nothing measurable.
int dispatch(const std::string& cmd, Args& args, obs::Context& ctx,
             bool observing, obs::MemorySink* capture) {
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
  if (cmd == "hardware") return cmd_hardware(tb, args);
  if (cmd == "stream-matrix") return cmd_stream_matrix(tb, args);
  if (cmd == "iomodel") return cmd_iomodel(tb, ctx, args);
  if (cmd == "demo") return cmd_demo(tb, args);
  if (cmd == "fio") return cmd_fio(tb, ctx, args);
  if (cmd == "faults") return cmd_faults(tb, ctx, args);
  if (cmd == "characterize") return cmd_characterize(tb, ctx, args);
  if (cmd == "replay") return cmd_replay(tb, ctx, args);
  if (cmd == "online") return cmd_online(tb, ctx, args);
  if (cmd == "validate") return cmd_validate(tb, args);
  if (cmd == "asymmetry") return cmd_asymmetry(tb, ctx, args);
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }
  const std::vector<std::string> argv_tail(argv + 2, argv + argc);
  // `report` runs (and captures) its own workload unless it analyzes a
  // saved --trace-in capture.
  const bool report_runs =
      cmd == "report" && std::find(argv_tail.begin(), argv_tail.end(),
                                   "--trace-in") == argv_tail.end();
  Args args(argv_tail);

  try {
    // Global observability options, valid on every subcommand.
    const std::string trace_out = args.take<std::string>("--trace-out", "");
    const std::string metrics_out =
        args.take<std::string>("--metrics-out", "");
    const std::string prom_out = args.take<std::string>("--prom-out", "");
    const std::string chrome_out = args.take<std::string>("--chrome-out", "");
    const bool deterministic = args.take_switch("--trace-deterministic");

    obs::Context ctx;
    ctx.trace.set_deterministic(deterministic);

    // The Chrome exporter and the default `report` run consume the
    // record stream in process, so those paths capture into a MemorySink
    // — teed with the file serializer when --trace-out is also given.
    const bool need_capture = !chrome_out.empty() || report_runs;
    std::ofstream trace_file;
    std::unique_ptr<obs::TraceSink> file_sink;
    obs::MemorySink capture;
    obs::TeeSink tee;
    if (!trace_out.empty()) {
      trace_file = open_output(trace_out);
      if (trace_out.ends_with(".csv")) {
        file_sink = std::make_unique<obs::CsvSink>(trace_file);
      } else {
        file_sink = std::make_unique<obs::JsonlSink>(trace_file);
      }
    }
    tee.add(file_sink.get());  // add() ignores nullptr
    if (need_capture) tee.add(&capture);
    const bool tracing = file_sink != nullptr || need_capture;
    if (tracing) ctx.trace.set_sink(&tee);

    const bool observing =
        tracing || !metrics_out.empty() || !prom_out.empty();
    const int rc = dispatch(cmd, args, ctx, observing,
                            need_capture ? &capture : nullptr);
    if (rc < 0) {
      std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
      return usage();
    }
    if (!metrics_out.empty()) {
      open_output(metrics_out) << ctx.metrics.to_json() << "\n";
    }
    if (!prom_out.empty()) {
      std::ofstream file = open_output(prom_out);
      obs::export_prometheus(ctx.metrics, file);
    }
    if (!chrome_out.empty()) {
      std::ofstream file = open_output(chrome_out);
      obs::export_chrome_trace(capture.events, file);
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
