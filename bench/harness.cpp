// Value gate: a curated bench subset whose deterministic results
// ci/perf_guard.sh pins against the committed baseline.
//
// The table/figure binaries in this directory regenerate the paper's
// numbers for humans; this harness runs a small, fast subset of the same
// pipeline once and records its simulated results (bandwidths, retry
// counts, trace-derived stall fractions, solver and fleet counters) as
// gauges named <bench>.<metric> in an obs::MetricsRegistry, written as
// metrics JSON (docs/FORMATS.md §4c). Nothing here reads a clock: wall
// time is bench/e2e's job.
//
//   bench_harness run [--out FILE]          run every bench, write JSON
//   bench_harness compare BASELINE CURRENT  gate CURRENT against BASELINE
//
// compare fails (exit 1) when a value is missing from either file, is not
// finite in either file, or moved: *_stall_frac values by more than 0.02
// absolute, every other value by more than 1% relative (absolute when
// the baseline is 0), in either direction — the values are deterministic,
// so drift means behavior changed.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "numaio.h"

namespace {

using namespace numaio;

/// One bench's results, by metric name.
using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------
// The curated benches. Each exercises one pipeline layer end to end and
// reports simulated metrics that a behavior change would move.

/// Total attributed stall over total busy time across the capture's
/// contention cells — the trace-derived "how contended was this run".
double overall_stall_frac(const std::vector<obs::Event>& events) {
  const obs::TraceAnalysis analysis = obs::analyze_trace(events);
  double busy = 0.0;
  double stall = 0.0;
  for (const obs::ContentionCell& cell : analysis.contention) {
    busy += cell.busy_ns;
    stall += cell.stall_ns;
  }
  return busy > 0.0 ? stall / busy : 0.0;
}

Values bench_stream_matrix(io::Testbed& tb) {
  const mem::BandwidthMatrix m = mem::stream_matrix(tb.host());
  double local = 0.0;
  double remote_min = 1e18;
  for (topo::NodeId cpu = 0; cpu < m.num_nodes(); ++cpu) {
    local += m.at(cpu, cpu);
    for (topo::NodeId memn = 0; memn < m.num_nodes(); ++memn) {
      if (memn != cpu) remote_min = std::min(remote_min, m.at(cpu, memn));
    }
  }
  return {{"local_avg_gbps", local / m.num_nodes()},
          {"remote_min_gbps", remote_min}};
}

Values bench_iomodel_node7(io::Testbed& tb) {
  obs::Context ctx;
  obs::MemorySink capture;
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&capture);
  model::IoModelConfig config;
  config.repetitions = 25;
  config.obs = &ctx;
  const model::IoModelResult m = model::build_iomodel(
      tb.host(), 7, model::Direction::kDeviceWrite, config);
  const model::Classification classes =
      model::classify(m, tb.machine().topology());
  return {{"class1_avg_gbps", classes.class_avg.front()},
          {"num_classes", static_cast<double>(classes.num_classes())},
          {"probe_stall_frac", overall_stall_frac(capture.events)}};
}

io::FioJob rdma_job(io::Testbed& tb) {
  io::FioJob job;
  job.devices = {&tb.nic()};
  job.engine = io::kRdmaRead;
  job.cpu_node = 2;
  job.num_streams = 4;
  job.bytes_per_stream = 40 * sim::kGiB;
  return job;
}

Values bench_fio_clean(io::Testbed& tb) {
  obs::Context ctx;
  obs::MemorySink capture;
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&capture);
  io::FioRunner fio(tb.host());
  fio.set_observer(&ctx);
  const io::FioResult result = fio.run(rdma_job(tb));
  return {{"aggregate_gbps", result.aggregate},
          {"io_stall_frac", overall_stall_frac(capture.events)}};
}

Values bench_fio_degraded(io::Testbed& tb) {
  obs::Context ctx;
  obs::MemorySink capture;
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&capture);

  faults::RandomPlanConfig plan_config;
  plan_config.seed = 42;
  plan_config.num_nodes = tb.machine().num_nodes();
  plan_config.num_devices = 1 + static_cast<int>(tb.ssds().size());
  plan_config.num_events = 4;
  faults::FaultInjector injector(tb.machine(),
                                 faults::FaultPlan::random(plan_config));
  injector.set_observer(&ctx);
  injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                           tb.nic().fault_resources());
  for (const io::PcieDevice* ssd : tb.ssds()) {
    injector.register_device(ssd->name(), ssd->attach_node(),
                             ssd->fault_resources());
  }

  io::FioJob job = rdma_job(tb);
  job.retry.timeout = 30.0e9;
  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  fio.set_observer(&ctx);
  const io::FioResult result = fio.run(job);
  injector.restore();
  return {{"aggregate_gbps", result.aggregate},
          {"retries", static_cast<double>(result.total_retries)},
          {"io_stall_frac", overall_stall_frac(capture.events)}};
}

Values bench_multiuser(io::Testbed& tb) {
  io::FioRunner fio(tb.host());
  io::FioJob net = rdma_job(tb);
  io::FioJob disk;
  disk.devices = tb.ssds();
  disk.engine = io::kSsdWrite;
  disk.cpu_node = 6;
  disk.num_streams = 4;
  disk.bytes_per_stream = 40 * sim::kGiB;
  const auto results = fio.run_concurrent({net, disk});
  return {{"combined_gbps", io::combined_aggregate(results)}};
}

/// The streaming-core scale bench: 10^6 synthetic records through
/// analyze_stream(). `peak_open_spans` is the peak-RSS proxy (analysis
/// memory is O(open spans + nodes²), so a small bounded peak here means
/// bounded memory at any capture size — the 10^6-record ctest pins the
/// same invariant). The remaining metrics pin the analysis result itself:
/// the generator is deterministic, so any drift is an analyzer behavior
/// change, not noise.
Values bench_trace_stream() {
  obs::SyntheticTraceConfig config;  // 1M records, 32-stream window
  obs::SyntheticTraceSource source(config);
  const obs::TraceAnalysis a = obs::analyze_stream(source);
  return {{"records", static_cast<double>(a.num_records)},
          {"peak_open_spans", static_cast<double>(a.peak_open_spans)},
          {"passes", static_cast<double>(a.passes)},
          {"path_steps", static_cast<double>(a.critical_path.size())}};
}

/// Solver hot-path stress: hundreds of flows over a shared 8-node fabric
/// with add/remove churn, capacity control events, and the
/// aggregate/utilization read-backs the fluid layer issues after every
/// solve. The metrics are deterministic allocations (rate checksum, final
/// aggregate) plus the solver's own round counters, so both behavior
/// drift and profiling drift trip the guard.
Values bench_solver_storm() {
  using namespace numaio::sim;
  constexpr int kNodes = 8;
  constexpr int kInitialFlows = 320;
  constexpr int kEvents = 2000;
  obs::Context ctx;
  FlowSolver solver;
  solver.set_observer(&ctx);
  Rng rng(0x5701);
  std::vector<ResourceId> pair(kNodes * kNodes, 0);
  std::vector<ResourceId> mc_rd, mc_wr, cpu;
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      pair[static_cast<std::size_t>(a * kNodes + b)] =
          solver.add_resource(rng.uniform(12.0, 30.0));
    }
  }
  for (int n = 0; n < kNodes; ++n) {
    mc_rd.push_back(solver.add_resource(rng.uniform(30.0, 55.0)));
    mc_wr.push_back(solver.add_resource(rng.uniform(30.0, 55.0)));
    cpu.push_back(solver.add_resource(28.0));
  }
  auto make_flow = [&] {
    const int src = static_cast<int>(rng.below(kNodes));
    int dst = static_cast<int>(rng.below(kNodes - 1));
    if (dst >= src) ++dst;
    std::vector<Usage> usages{
        {mc_rd[static_cast<std::size_t>(src)], 1.0},
        {pair[static_cast<std::size_t>(src * kNodes + dst)], 1.0},
        {mc_wr[static_cast<std::size_t>(dst)], 1.0}};
    if (rng.uniform() < 0.5) {
      usages.push_back({cpu[static_cast<std::size_t>(src)], 0.05});
    }
    const Gbps cap = rng.uniform() < 0.4 ? rng.uniform(2.0, 18.0) : kUnlimited;
    return solver.add_flow(std::move(usages), cap);
  };
  std::vector<FlowId> live;
  live.reserve(kInitialFlows);
  for (int i = 0; i < kInitialFlows; ++i) live.push_back(make_flow());
  double checksum = 0.0;
  double agg = 0.0;
  double util = 0.0;
  for (int e = 0; e < kEvents; ++e) {
    const std::size_t victim = rng.below(live.size());
    solver.remove_flow(live[victim]);
    live[victim] = make_flow();
    if (e % 16 == 0) {
      const int a = static_cast<int>(rng.below(kNodes));
      int b = static_cast<int>(rng.below(kNodes - 1));
      if (b >= a) ++b;
      solver.set_capacity(pair[static_cast<std::size_t>(a * kNodes + b)],
                          rng.uniform(12.0, 30.0));
    }
    const auto& rates = solver.solve();
    checksum += rates[live[static_cast<std::size_t>(e) % live.size()]];
    agg = solver.aggregate_rate();
    util = solver.utilization(mc_wr[static_cast<std::size_t>(e % kNodes)]);
  }
  return {{"events", static_cast<double>(kEvents)},
          {"rate_checksum_gbps", checksum},
          {"agg_final_gbps", agg},
          {"util_final", util},
          {"rounds_total", ctx.metrics.value("solver.rounds")},
          {"solve_calls", ctx.metrics.value("solver.solves")},
          {"cache_hits", ctx.metrics.value("solver.cache_hits")}};
}

/// Fluid-simulation replay: staggered transfers over a 4-node fabric with
/// completion-spawned follow-ups, capacity control events, no-op watchdog
/// ticks (the cache-hit path across control points that touch nothing)
/// and a few aborts. Pins end-to-end fluid results (simulated makespan,
/// aggregate bandwidth) plus the solver call/round counters driven by the
/// event loop.
Values bench_fluid_replay() {
  using namespace numaio::sim;
  constexpr int kNodes = 4;
  constexpr int kTransfers = 360;
  obs::Context ctx;
  FlowSolver solver;
  solver.set_observer(&ctx);
  Rng rng(0xF1D0);
  std::vector<ResourceId> mc, pair(kNodes * kNodes, 0);
  for (int n = 0; n < kNodes; ++n) {
    mc.push_back(solver.add_resource(50.0));
  }
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      pair[static_cast<std::size_t>(a * kNodes + b)] =
          solver.add_resource(rng.uniform(14.0, 30.0));
    }
  }
  FluidSimulation fluid(solver);
  auto random_usages = [&] {
    const int src = static_cast<int>(rng.below(kNodes));
    int dst = static_cast<int>(rng.below(kNodes - 1));
    if (dst >= src) ++dst;
    return std::vector<Usage>{
        {mc[static_cast<std::size_t>(src)], 1.0},
        {pair[static_cast<std::size_t>(src * kNodes + dst)], 1.0},
        {mc[static_cast<std::size_t>(dst)], 1.0}};
  };
  for (int i = 0; i < kTransfers; ++i) {
    const sim::Bytes bytes = (4 + rng.below(28)) * sim::kMiB;
    const Ns at = i * 40.0e3 + rng.uniform(0.0, 20.0e3);
    const Gbps cap = rng.uniform() < 0.3 ? rng.uniform(3.0, 12.0) : kUnlimited;
    FluidSimulation::CompletionFn follow_up;
    if (i % 8 == 0) {
      follow_up = [&](FluidSimulation::TransferId, Ns) {
        fluid.start_transfer(random_usages(), 2 * sim::kMiB);
      };
    }
    fluid.start_transfer_at(at, random_usages(), bytes, cap,
                            std::move(follow_up));
  }
  for (int k = 0; k < 240; ++k) {
    const Ns at = k * 60.0e3;
    if (k % 3 == 0) {
      const ResourceId p = pair[static_cast<std::size_t>(
          (k % kNodes) * kNodes + ((k + 1) % kNodes))];
      const Gbps cap = 14.0 + (k % 7) * 2.0;
      fluid.schedule_control(at, [&solver, p, cap] {
        solver.set_capacity(p, cap);
      });
    } else {
      fluid.schedule_control(at, [] {});  // watchdog tick, touches nothing
    }
  }
  for (int j = 0; j < 8; ++j) {
    const auto id =
        static_cast<FluidSimulation::TransferId>(rng.below(kTransfers));
    fluid.schedule_control(j * 900.0e3 + 5.0,
                           [&fluid, id] { fluid.abort_transfer(id); });
  }
  const Ns end = fluid.run();
  return {{"transfers", static_cast<double>(fluid.transfer_count())},
          {"sim_ms", end / 1.0e6},
          {"aggregate_gbps", fluid.aggregate_rate()},
          {"rounds_total", ctx.metrics.value("solver.rounds")},
          {"solve_calls", ctx.metrics.value("solver.solves")},
          {"cache_hits", ctx.metrics.value("solver.cache_hits")}};
}

/// Fleet serving core under an overload storm with one host crashing
/// mid-run (src/fleet): three tenants splitting more load than three
/// hosts can carry, host 1 down for a quarter of the run and warming
/// back up at half capacity. Pins the degradation contract — dispatches
/// per simulated second, the shed fraction and the accepted-request p99
/// — plus the fail-over and breaker counters.
Values bench_fleet_storm() {
  using namespace numaio::fleet;
  StormScenario storm = make_storm(/*num_hosts=*/3, /*num_tenants=*/3,
                                   /*offered_rps=*/700.0, /*seed=*/11,
                                   /*horizon=*/2.0e9);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  const FleetReport report = sim.run();
  return {{"sim_dispatch_rps", report.attempts_per_s},
          {"shed_fraction", report.shed_fraction},
          {"accepted_p99_ms", report.accepted_p99 / 1e6},
          {"completed", static_cast<double>(report.completed)},
          {"replaced", static_cast<double>(report.replaced)},
          {"breaker_trips", static_cast<double>(report.breaker_trips)},
          {"max_queue_depth", static_cast<double>(report.max_queue_depth)}};
}

/// The fleet-scale request path (DESIGN.md §12): thousands of tenants at
/// six-figure offered rps over 24 hosts, batched admission epochs, coarse
/// service modeling, class-spread placement and a mid-run host crash.
/// sim_dispatch_rps counts dispatches per simulated second, so it is as
/// deterministic as every other value here; placement_p99_ms pins the
/// admission -> first-dispatch tail.
Values bench_fleet_scale() {
  using namespace numaio::fleet;
  StormScenario storm = make_scale_storm(
      /*num_hosts=*/24, /*num_tenants=*/2000, /*offered_rps=*/1.4e6,
      /*seed=*/11, /*horizon=*/0.4e9);
  // Past 10^6 scheduled req/s: RPC-sized payloads and wide per-host
  // concurrency so slot turnover, not payload drain, sets the pace,
  // and a finer completion grid so alarm rounding stays a small tax.
  for (auto& t : storm.tenants) t.request_bytes = 32 * numaio::sim::kKiB;
  storm.config.max_inflight_per_host = 128;
  storm.config.completion_grid = 0.25e6;
  // One admission epoch delivers ~2,800 arrivals; the queue must hold
  // an epoch's worth plus slack or everything past 512 sheds on entry.
  storm.config.queue_depth = 4096;
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  const FleetReport report = sim.run();
  return {{"sim_dispatch_rps", report.attempts_per_s},
          {"placement_p99_ms", report.placement_p99 / 1e6},
          {"shed_fraction", report.shed_fraction},
          {"completed", static_cast<double>(report.completed)},
          {"replaced", static_cast<double>(report.replaced)},
          {"breaker_trips", static_cast<double>(report.breaker_trips)}};
}

obs::MetricsRegistry run_benches() {
  io::Testbed tb = io::Testbed::dl585();
  obs::MetricsRegistry results;
  const auto record = [&results](const std::string& bench,
                                 const Values& values) {
    for (const auto& [metric, value] : values) {
      results.set(results.gauge(bench + "." + metric), value);
    }
  };
  record("stream_matrix", bench_stream_matrix(tb));
  record("iomodel_node7_write", bench_iomodel_node7(tb));
  record("fio_rdma_clean", bench_fio_clean(tb));
  record("fio_rdma_degraded_seed42", bench_fio_degraded(tb));
  record("multiuser_nic_ssd", bench_multiuser(tb));
  record("trace_stream_1m", bench_trace_stream());
  record("solver_storm", bench_solver_storm());
  record("fluid_replay", bench_fluid_replay());
  record("fleet_storm", bench_fleet_storm());
  record("fleet_scale", bench_fleet_scale());
  return results;
}

// ---------------------------------------------------------------------
// compare.

constexpr double kRelTol = 0.01;    ///< Every value: relative, either way.
constexpr double kStallTol = 0.02;  ///< *_stall_frac values: absolute.
constexpr char kRefresh[] =
    "refresh it with `bench_harness run --out BENCH_numaio.json`";

/// The gauges of a metrics JSON file, by name.
Values load_values(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw StatusError(StatusCode::kNoFile, "cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  Values values;
  try {
    for (const auto& g : obs::parse_metrics_json(text.str()).gauge_values()) {
      values[g.name] = g.value;
    }
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
  return values;
}

bool within_tolerance(const std::string& name, double base, double cur) {
  if (name.ends_with("_stall_frac")) return std::fabs(cur - base) <= kStallTol;
  if (base == 0.0) return std::fabs(cur) <= kRelTol;
  return std::fabs(cur / base - 1.0) <= kRelTol;
}

int compare(const Values& base, const Values& current) {
  int failures = 0;
  for (const auto& [name, b] : base) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("FAIL %s missing from current results; %s\n", name.c_str(),
                  kRefresh);
      ++failures;
      continue;
    }
    const double c = it->second;
    if (!std::isfinite(b) || !std::isfinite(c)) {
      std::printf("FAIL %s not finite: %.6g -> %.6g\n", name.c_str(), b, c);
      ++failures;
    } else if (!within_tolerance(name, b, c)) {
      std::printf("FAIL %s %.6g -> %.6g\n", name.c_str(), b, c);
      ++failures;
    }
  }
  // The reverse direction: a value the baseline has never seen means the
  // baseline predates it, and the guard would silently cover nothing for
  // the new code.
  for (const auto& entry : current) {
    if (base.count(entry.first) == 0) {
      std::printf("FAIL %s not in baseline; %s\n", entry.first.c_str(),
                  kRefresh);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("perf guard: %zu values within tolerance\n", base.size());
    return 0;
  }
  std::printf("perf guard: %d failure(s)\n", failures);
  return 1;
}

// ---------------------------------------------------------------------
// CLI plumbing, on numaio_cli's exit scheme: 0 ok, 1 runtime failure or
// regression, 2 usage, 3 unreadable file, 4 malformed input.

[[noreturn]] void usage_error(const std::string& what) {
  throw StatusError(StatusCode::kUsage, what);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_harness run [--out FILE]\n"
               "       bench_harness compare BASELINE CURRENT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "run") {
      std::string out_path;
      std::size_t used = 0;
      if (!args.empty() && args[0] == "--out") {
        if (args.size() < 2) usage_error("--out wants a value");
        out_path = args[1];
        used = 2;
      }
      if (used < args.size()) {
        usage_error("unknown argument '" + args[used] + "'");
      }
      const obs::MetricsRegistry results = run_benches();
      if (out_path.empty()) {
        std::cout << results.to_json();
        return 0;
      }
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + out_path + "'");
      }
      out << results.to_json();
      std::printf("wrote %zu values to %s\n", results.gauge_values().size(),
                  out_path.c_str());
      return 0;
    }
    if (cmd == "compare") {
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i >= 2 || args[i].starts_with("--")) {
          usage_error("unknown argument '" + args[i] + "'");
        }
      }
      if (args.size() < 2) {
        usage_error(args.empty() ? "missing BASELINE" : "missing CURRENT");
      }
      return compare(load_values(args[0]), load_values(args[1]));
    }
  } catch (const StatusError& e) {
    std::fprintf(stderr, "bench_harness %s: %s\n", cmd.c_str(), e.what());
    return e.status().exit_code();
  } catch (const std::invalid_argument& e) {
    // A malformed metrics JSON file.
    std::fprintf(stderr, "bench_harness %s: %s\n", cmd.c_str(), e.what());
    return static_cast<int>(StatusCode::kParse);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "bench_harness: unknown command '%s'\n", cmd.c_str());
  return usage();
}
