// Perf-regression harness: a curated bench subset with machine-checkable
// output, the teeth behind ci/perf_guard.sh.
//
// The table/figure binaries in this directory regenerate the paper's
// numbers for humans; this harness runs a small, fast subset of the same
// pipeline and writes BENCH_numaio.json — per bench, the wall time and a
// set of simulated metrics (bandwidths, retry counts, trace-derived stall
// fractions). A committed baseline plus `compare` turns that into a perf
// gate:
//
//   bench_harness run [--out FILE] [--reps N]      measure, write JSON
//   bench_harness compare BASE CUR [--wall-tol F] [--metric-tol F]
//                 [--stall-tol F] [--skip-wall]    gate CUR against BASE
//   bench_harness perturb IN OUT --wall-scale F    self-test helper
//
// compare fails (exit 1) when a bench disappeared, a wall time regressed
// past --wall-tol (relative, slowdowns only — getting faster never
// fails), a simulated metric moved past --metric-tol (relative, both
// directions: these are deterministic, drift means behavior changed), or
// a *_stall_frac metric moved past --stall-tol (absolute). --skip-wall
// drops the wall check for noisy shared CI runners; run_all.sh uses it.
// *_info metrics (host facts and wall-time ratios) are recorded but never
// gated.
// `perturb` rescales every wall_ms so CI can prove the gate actually
// fails on an injected slowdown (see tools/CMakeLists.txt).
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
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

// ---------------------------------------------------------------------
// Bench results and their JSON serialization (docs/FORMATS.md §5c).

struct BenchResult {
  double wall_ms = 0.0;
  /// Name-sorted; values are simulated (deterministic) measurements.
  std::map<std::string, double> metrics;
};

using BenchSet = std::map<std::string, BenchResult>;

constexpr char kSchema[] = "numaio-bench v1";

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_bench_json(const BenchSet& benches, std::ostream& out) {
  out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"benches\": {";
  bool first_bench = true;
  for (const auto& [name, r] : benches) {
    out << (first_bench ? "\n" : ",\n") << "    \"" << name
        << "\": {\"wall_ms\": " << num(r.wall_ms) << ", \"metrics\": {";
    bool first_metric = true;
    for (const auto& [key, value] : r.metrics) {
      out << (first_metric ? "" : ", ") << "\"" << key
          << "\": " << num(value);
      first_metric = false;
    }
    out << "}}";
    first_bench = false;
  }
  out << "\n  }\n}\n";
}

// ---------------------------------------------------------------------
// A minimal JSON reader for the schema above: objects, strings, numbers.

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }
  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      if (pos_ < text_.size()) out += text_[pos_++];
    }
    expect('"');
    return out;
  }
  double number() {
    skip_ws();
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(text_.substr(pos_), &used);
    } catch (const std::exception&) {
      fail("expected a number");
    }
    pos_ += used;
    return v;
  }
  void end() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("bench json, offset " +
                                std::to_string(pos_) + ": " + what);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

BenchSet parse_bench_json(const std::string& text) {
  JsonCursor c(text);
  BenchSet benches;
  c.expect('{');
  bool saw_schema = false;
  while (true) {
    const std::string key = c.string();
    c.expect(':');
    if (key == "schema") {
      if (c.string() != kSchema) {
        throw std::invalid_argument("bench json: unsupported schema");
      }
      saw_schema = true;
    } else if (key == "benches") {
      c.expect('{');
      if (!c.accept('}')) {
        do {
          const std::string name = c.string();
          c.expect(':');
          c.expect('{');
          BenchResult r;
          do {
            const std::string field = c.string();
            c.expect(':');
            if (field == "wall_ms") {
              r.wall_ms = c.number();
            } else if (field == "metrics") {
              c.expect('{');
              if (!c.accept('}')) {
                do {
                  const std::string metric = c.string();
                  c.expect(':');
                  r.metrics[metric] = c.number();
                } while (c.accept(','));
                c.expect('}');
              }
            } else {
              throw std::invalid_argument("bench json: unknown field '" +
                                          field + "'");
            }
          } while (c.accept(','));
          c.expect('}');
          benches[name] = r;
        } while (c.accept(','));
        c.expect('}');
      }
    } else {
      throw std::invalid_argument("bench json: unknown key '" + key + "'");
    }
    if (!c.accept(',')) break;
  }
  c.expect('}');
  c.end();
  if (!saw_schema) throw std::invalid_argument("bench json: no schema");
  return benches;
}

BenchSet load_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw StatusError(StatusCode::kNoFile, "cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_bench_json(text.str());
}

// ---------------------------------------------------------------------
// The curated benches. Each exercises one pipeline layer end to end and
// reports simulated metrics that a behavior change would move.

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Runs `body` `iterations` times under one timer; the metrics of the
/// last iteration win (every iteration is deterministic, so they all
/// agree). Single runs finish in microseconds — too little signal for a
/// relative wall gate — so each bench repeats enough to make wall_ms a
/// tens-of-milliseconds number.
template <typename Body>
BenchResult timed(int iterations, Body&& body) {
  BenchResult r;
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) r.metrics = body();
  r.wall_ms = ms_since(start);
  return r;
}

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

BenchResult bench_stream_matrix(io::Testbed& tb) {
  return timed(10, [&] {
    const mem::BandwidthMatrix m = mem::stream_matrix(tb.host());
    double local = 0.0;
    double remote_min = 1e18;
    for (topo::NodeId cpu = 0; cpu < m.num_nodes(); ++cpu) {
      local += m.at(cpu, cpu);
      for (topo::NodeId memn = 0; memn < m.num_nodes(); ++memn) {
        if (memn != cpu) remote_min = std::min(remote_min, m.at(cpu, memn));
      }
    }
    return std::map<std::string, double>{
        {"local_avg_gbps", local / m.num_nodes()},
        {"remote_min_gbps", remote_min}};
  });
}

BenchResult bench_iomodel_node7(io::Testbed& tb, int reps) {
  return timed(50, [&] {
    obs::Context ctx;
    obs::MemorySink capture;
    ctx.trace.set_deterministic(true);
    ctx.trace.set_sink(&capture);
    model::IoModelConfig config;
    config.repetitions = reps;
    config.obs = &ctx;
    const model::IoModelResult m = model::build_iomodel(
        tb.host(), 7, model::Direction::kDeviceWrite, config);
    const model::Classification classes =
        model::classify(m, tb.machine().topology());
    return std::map<std::string, double>{
        {"class1_avg_gbps", classes.class_avg.front()},
        {"num_classes", static_cast<double>(classes.num_classes())},
        {"probe_stall_frac", overall_stall_frac(capture.events)}};
  });
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

BenchResult bench_fio_clean(io::Testbed& tb) {
  return timed(200, [&] {
    obs::Context ctx;
    obs::MemorySink capture;
    ctx.trace.set_deterministic(true);
    ctx.trace.set_sink(&capture);
    io::FioRunner fio(tb.host());
    fio.set_observer(&ctx);
    const io::FioResult result = fio.run(rdma_job(tb));
    return std::map<std::string, double>{
        {"aggregate_gbps", result.aggregate},
        {"io_stall_frac", overall_stall_frac(capture.events)}};
  });
}

BenchResult bench_fio_degraded(io::Testbed& tb) {
  return timed(50, [&] {
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
    return std::map<std::string, double>{
        {"aggregate_gbps", result.aggregate},
        {"retries", static_cast<double>(result.total_retries)},
        {"io_stall_frac", overall_stall_frac(capture.events)}};
  });
}

BenchResult bench_multiuser(io::Testbed& tb) {
  return timed(200, [&] {
    io::FioRunner fio(tb.host());
    io::FioJob net = rdma_job(tb);
    io::FioJob disk;
    disk.devices = tb.ssds();
    disk.engine = io::kSsdWrite;
    disk.cpu_node = 6;
    disk.num_streams = 4;
    disk.bytes_per_stream = 40 * sim::kGiB;
    const auto results = fio.run_concurrent({net, disk});
    return std::map<std::string, double>{
        {"combined_gbps", io::combined_aggregate(results)}};
  });
}

/// The streaming-core scale bench: 10^6 synthetic records through
/// analyze_stream(). `records` / wall_ms gives the records-per-second
/// throughput of the record-stream core; `peak_open_spans` is the
/// peak-RSS proxy (analysis memory is O(open spans + nodes²), so a small
/// bounded peak here means bounded memory at any capture size — the
/// 10^6-record ctest pins the same invariant). The remaining metrics pin
/// the analysis result itself: the generator is deterministic, so any
/// drift is an analyzer behavior change, not noise.
BenchResult bench_trace_stream() {
  obs::SyntheticTraceConfig config;  // 1M records, 32-stream window
  obs::SyntheticTraceSource source(config);
  return timed(1, [&] {
    const obs::TraceAnalysis a = obs::analyze_stream(source);
    return std::map<std::string, double>{
        {"records", static_cast<double>(a.num_records)},
        {"peak_open_spans", static_cast<double>(a.peak_open_spans)},
        {"passes", static_cast<double>(a.passes)},
        {"path_steps", static_cast<double>(a.critical_path.size())}};
  });
}

/// Flame-fold scale bench: 10^6 synthetic records nested 32 spans deep
/// through FoldedStackCollector (obs/profile.h), the same shape the
/// profiling ctest pins. Wall time is the headline (records / wall_ms =
/// fold throughput); every simulated metric carries the *_info suffix —
/// reported for context, never gated — because the interesting contract
/// here is the gated wall time plus the O(open spans) peak the ctest
/// already asserts, not the exact stack census of the generator.
BenchResult bench_flame_fold() {
  obs::SyntheticTraceConfig config;
  config.records = 1000000;
  config.depth = 32;
  config.fanout = 8;
  config.seed = 11;
  obs::SyntheticTraceSource source(config);
  return timed(3, [&] {
    std::ostringstream out;
    const obs::FoldStats stats =
        obs::export_folded_stacks(source, out, obs::FoldWeight::kSelf);
    return std::map<std::string, double>{
        {"records_info", static_cast<double>(stats.records)},
        {"spans_info", static_cast<double>(stats.spans)},
        {"stacks_info", static_cast<double>(stats.stacks)},
        {"peak_open_spans_info",
         static_cast<double>(stats.peak_open_spans)},
        {"folded_bytes_info", static_cast<double>(out.str().size())}};
  });
}

/// Solver hot-path stress: hundreds of flows over a shared 8-node fabric
/// with add/remove churn, capacity control events, and the
/// aggregate/utilization read-backs the fluid layer issues after every
/// solve. `events` / wall_ms is the records-of-work throughput the
/// incremental-solver work is gated on; the remaining metrics are
/// deterministic allocations (rate checksum, final aggregate) plus the
/// solver's own round counters, so behavior drift and profiling drift
/// both trip the guard.
BenchResult bench_solver_storm() {
  using namespace numaio::sim;
  constexpr int kNodes = 8;
  constexpr int kInitialFlows = 320;
  constexpr int kEvents = 2000;
  return timed(3, [&] {
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
            solver.add_resource("fab", rng.uniform(12.0, 30.0));
      }
    }
    for (int n = 0; n < kNodes; ++n) {
      mc_rd.push_back(solver.add_resource("mc_rd", rng.uniform(30.0, 55.0)));
      mc_wr.push_back(solver.add_resource("mc_wr", rng.uniform(30.0, 55.0)));
      cpu.push_back(solver.add_resource("cpu", 28.0));
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
      const Gbps cap =
          rng.uniform() < 0.4 ? rng.uniform(2.0, 18.0) : kUnlimited;
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
    // value() of an unregistered name is 0, so summing the old and new
    // round-counter names keeps this bench comparable across the solver
    // rewrite that renamed solver.iterations to solver.rounds.
    return std::map<std::string, double>{
        {"events", static_cast<double>(kEvents)},
        {"rate_checksum_gbps", checksum},
        {"agg_final_gbps", agg},
        {"util_final", util},
        {"rounds_total", ctx.metrics.value("solver.rounds") +
                             ctx.metrics.value("solver.iterations")},
        {"solve_calls", ctx.metrics.value("solver.solves")},
        {"cache_hits", ctx.metrics.value("solver.cache_hits")}};
  });
}

/// Component-partitioning bench: 16 resource-disjoint shards (each a
/// spanning flow plus ~40 churned flows) in ONE solver, every shard
/// mutated each round so all 16 components re-solve per solve(). The
/// identical seeded churn runs twice — SolveOptions{partition=true} and
/// the monolithic default — and `partition_speedup_info` is the wall
/// ratio (monolithic / partitioned), recorded but never gated. The
/// checksums and component counters come from the partitioned run and
/// pin the decomposition shape.
BenchResult bench_solver_storm_mt() {
  using namespace numaio::sim;
  constexpr int kShards = 16;
  constexpr int kResPerShard = 6;
  constexpr int kFlowsPerShard = 40;
  constexpr int kRounds = 200;

  struct RunOut {
    double wall_ms = 0.0;
    double checksum = 0.0;
    double agg = 0.0;
    FlowSolver::SolveStats stats;
  };
  const auto run_churn = [&](bool partition) {
    FlowSolver solver(SolveOptions{.partition = partition});
    Rng rng(0x3417);
    std::vector<std::vector<ResourceId>> res(kShards);
    std::vector<std::vector<FlowId>> live(kShards);
    auto make_flow = [&](int s) {
      const auto n = 2 + rng.below(2);
      std::vector<Usage> usages;
      for (std::uint64_t i = 0; i < n; ++i) {
        usages.push_back(
            {res[static_cast<std::size_t>(s)][rng.below(kResPerShard)],
             rng.uniform(0.2, 1.5)});
      }
      const Gbps cap =
          rng.uniform() < 0.4 ? rng.uniform(2.0, 18.0) : kUnlimited;
      return solver.add_flow(std::move(usages), cap);
    };
    for (int s = 0; s < kShards; ++s) {
      for (int r = 0; r < kResPerShard; ++r) {
        res[static_cast<std::size_t>(s)].push_back(
            solver.add_resource("r", rng.uniform(15.0, 45.0)));
      }
      // The spanning flow pins the shard to one component across churn,
      // so the decomposition stays exactly kShards components.
      std::vector<Usage> span;
      for (ResourceId r : res[static_cast<std::size_t>(s)]) {
        span.push_back({r, 0.1});
      }
      live[static_cast<std::size_t>(s)].push_back(
          solver.add_flow(std::move(span), 1.0));
      for (int f = 0; f < kFlowsPerShard; ++f) {
        live[static_cast<std::size_t>(s)].push_back(make_flow(s));
      }
    }
    RunOut out;
    const auto start = Clock::now();  // setup excluded: identical anyway
    for (int round = 0; round < kRounds; ++round) {
      for (int s = 0; s < kShards; ++s) {
        auto& flows = live[static_cast<std::size_t>(s)];
        // Never the spanning flow at index 0.
        const std::size_t victim = 1 + rng.below(flows.size() - 1);
        solver.remove_flow(flows[victim]);
        flows[victim] = make_flow(s);
        if (round % 16 == s) {
          solver.set_capacity(
              res[static_cast<std::size_t>(s)][rng.below(kResPerShard)],
              rng.uniform(15.0, 45.0));
        }
      }
      const auto& rates = solver.solve();
      const auto& probe = live[static_cast<std::size_t>(round % kShards)];
      out.checksum += rates[probe[static_cast<std::size_t>(round) %
                                  probe.size()]];
    }
    out.agg = solver.aggregate_rate();
    out.wall_ms = ms_since(start);
    out.stats = solver.stats();
    return out;
  };

  BenchResult r;
  const auto start = Clock::now();
  const RunOut part = run_churn(true);
  const RunOut mono = run_churn(false);
  r.wall_ms = ms_since(start);
  r.metrics = std::map<std::string, double>{
      {"events", static_cast<double>(kRounds * kShards)},
      {"rate_checksum_gbps", part.checksum},
      {"agg_final_gbps", part.agg},
      {"components", static_cast<double>(part.stats.components)},
      {"largest_component_flows",
       static_cast<double>(part.stats.largest_component_flows)},
      {"partition_speedup_info",
       part.wall_ms > 0.0 ? mono.wall_ms / part.wall_ms : 0.0}};
  return r;
}

/// Fluid-simulation replay: staggered transfers over a 4-node fabric with
/// completion-spawned follow-ups, capacity control events, no-op watchdog
/// ticks (the cache-hit path across control points that touch nothing)
/// and a few aborts. Pins end-to-end fluid results (simulated makespan,
/// aggregate bandwidth) plus the solver call/round counters driven by the
/// event loop.
BenchResult bench_fluid_replay() {
  using namespace numaio::sim;
  constexpr int kNodes = 4;
  constexpr int kTransfers = 360;
  return timed(3, [&] {
    obs::Context ctx;
    FlowSolver solver;
    solver.set_observer(&ctx);
    Rng rng(0xF1D0);
    std::vector<ResourceId> mc, pair(kNodes * kNodes, 0);
    for (int n = 0; n < kNodes; ++n) {
      mc.push_back(solver.add_resource("mc", 50.0));
    }
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        pair[static_cast<std::size_t>(a * kNodes + b)] =
            solver.add_resource("fab", rng.uniform(14.0, 30.0));
      }
    }
    FluidSimulation fluid(solver);
    fluid.enable_rate_trace();
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
      const Gbps cap =
          rng.uniform() < 0.3 ? rng.uniform(3.0, 12.0) : kUnlimited;
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
      const auto id = static_cast<FluidSimulation::TransferId>(
          rng.below(kTransfers));
      fluid.schedule_control(j * 900.0e3 + 5.0,
                             [&fluid, id] { fluid.abort_transfer(id); });
    }
    const Ns end = fluid.run();
    return std::map<std::string, double>{
        {"transfers", static_cast<double>(fluid.transfer_count())},
        {"sim_ms", end / 1.0e6},
        {"aggregate_gbps", fluid.aggregate_rate()},
        {"rounds_total", ctx.metrics.value("solver.rounds") +
                             ctx.metrics.value("solver.iterations")},
        {"solve_calls", ctx.metrics.value("solver.solves")},
        {"cache_hits", ctx.metrics.value("solver.cache_hits")}};
  });
}

/// Fleet serving core under an overload storm with one host crashing
/// mid-run (src/fleet): three tenants splitting more load than three
/// hosts can carry, host 1 down for a quarter of the run and warming
/// back up at half capacity. Pins the degradation contract — scheduled
/// attempts/s, the shed fraction and the accepted-request p99 — plus the
/// fail-over and breaker counters.
BenchResult bench_fleet_storm() {
  using namespace numaio::fleet;
  return timed(3, [&] {
    StormScenario storm = make_storm(/*num_hosts=*/3, /*num_tenants=*/3,
                                     /*offered_rps=*/700.0, /*seed=*/11,
                                     /*horizon=*/2.0e9);
    FleetSim sim(storm.config, storm.tenants);
    sim.set_fault_plan(storm.plan);
    const FleetReport report = sim.run();
    return std::map<std::string, double>{
        {"sched_rps", report.attempts_per_s},
        {"shed_fraction", report.shed_fraction},
        {"accepted_p99_ms", report.accepted_p99 / 1e6},
        {"completed", static_cast<double>(report.completed)},
        {"replaced", static_cast<double>(report.replaced)},
        {"breaker_trips", static_cast<double>(report.breaker_trips)},
        {"max_queue_depth", static_cast<double>(report.max_queue_depth)}};
  });
}

/// The fleet-scale request path (DESIGN.md §12): thousands of tenants at
/// six-figure offered rps over 24 hosts, batched admission epochs, coarse
/// service modeling, class-spread placement and a mid-run host crash.
/// sched_rps carries the throughput contract — the perf guard holds it
/// to an absolute floor (it is simulated-time deterministic, so the floor
/// gates capability, not host noise) — and placement_p99_ms pins the
/// admission -> first-dispatch tail.
BenchResult bench_fleet_scale() {
  using namespace numaio::fleet;
  return timed(2, [&] {
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
    return std::map<std::string, double>{
        {"sched_rps", report.attempts_per_s},
        {"placement_p99_ms", report.placement_p99 / 1e6},
        {"shed_fraction", report.shed_fraction},
        {"completed", static_cast<double>(report.completed)},
        {"replaced", static_cast<double>(report.replaced)},
        {"breaker_trips", static_cast<double>(report.breaker_trips)}};
  });
}

BenchSet run_benches(int reps) {
  io::Testbed tb = io::Testbed::dl585();
  BenchSet out;
  out["stream_matrix"] = bench_stream_matrix(tb);
  out["iomodel_node7_write"] = bench_iomodel_node7(tb, reps);
  out["fio_rdma_clean"] = bench_fio_clean(tb);
  out["fio_rdma_degraded_seed42"] = bench_fio_degraded(tb);
  out["multiuser_nic_ssd"] = bench_multiuser(tb);
  out["trace_stream_1m"] = bench_trace_stream();
  out["flame_fold_1m"] = bench_flame_fold();
  out["solver_storm"] = bench_solver_storm();
  out["solver_storm_mt"] = bench_solver_storm_mt();
  out["fluid_replay"] = bench_fluid_replay();
  out["fleet_storm"] = bench_fleet_storm();
  out["fleet_scale"] = bench_fleet_scale();
  return out;
}

// ---------------------------------------------------------------------
// compare / perturb.

struct CompareOptions {
  double wall_tol = 0.20;      ///< Relative; slowdowns only.
  double metric_tol = 0.01;    ///< Relative, either direction.
  double stall_tol = 0.02;     ///< Absolute, for *_stall_frac metrics.
  double rps_floor = 5.0e5;    ///< Minimum for fleet_scale's sched_rps.
  bool skip_wall = false;
};

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(),
                      suffix) == 0;
}

int compare(const BenchSet& base, const BenchSet& current,
            const CompareOptions& options) {
  int failures = 0;
  for (const auto& [name, b] : base) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("FAIL %-26s missing from current results\n",
                  name.c_str());
      ++failures;
      continue;
    }
    const BenchResult& c = it->second;

    if (!options.skip_wall && b.wall_ms > 0.0) {
      const double rel = c.wall_ms / b.wall_ms - 1.0;
      if (rel > options.wall_tol) {
        std::printf("FAIL %-26s wall %.3f ms -> %.3f ms (+%.0f%% > %.0f%%)\n",
                    name.c_str(), b.wall_ms, c.wall_ms, 100.0 * rel,
                    100.0 * options.wall_tol);
        ++failures;
      } else {
        std::printf("ok   %-26s wall %.3f ms -> %.3f ms (%+.0f%%)\n",
                    name.c_str(), b.wall_ms, c.wall_ms, 100.0 * rel);
      }
    }

    for (const auto& [metric, base_value] : b.metrics) {
      const auto mit = c.metrics.find(metric);
      if (mit == c.metrics.end()) {
        std::printf("FAIL %-26s metric %s missing\n", name.c_str(),
                    metric.c_str());
        ++failures;
        continue;
      }
      const double cur_value = mit->second;
      // *_info metrics are facts about the measuring host or ratios of
      // its wall times: recorded for context, never gated — the baseline
      // may have been refreshed on different hardware.
      if (ends_with(metric, "_info")) continue;
      // fleet_scale's sched_rps is the throughput contract: an
      // absolute floor, not a relative band. It is computed from
      // simulated time, so unlike wall-clock it cannot regress from host
      // noise — falling below the floor means the request path itself
      // lost capability.
      if (name == "fleet_scale" && metric == "sched_rps") {
        if (cur_value < options.rps_floor) {
          std::printf("FAIL %-26s %s %.0f < %.0f floor\n", name.c_str(),
                      metric.c_str(), cur_value, options.rps_floor);
          ++failures;
        } else {
          std::printf("ok   %-26s %s %.0f (floor %.0f)\n", name.c_str(),
                      metric.c_str(), cur_value, options.rps_floor);
        }
        continue;
      }
      bool bad = false;
      if (ends_with(metric, "stall_frac")) {
        bad = std::fabs(cur_value - base_value) > options.stall_tol;
      } else if (base_value != 0.0) {
        bad = std::fabs(cur_value / base_value - 1.0) > options.metric_tol;
      } else {
        bad = std::fabs(cur_value) > options.metric_tol;
      }
      if (bad) {
        std::printf("FAIL %-26s %s %.6g -> %.6g\n", name.c_str(),
                    metric.c_str(), base_value, cur_value);
        ++failures;
      }
    }
  }
  // The reverse direction: a bench or metric in the current run that the
  // baseline has never seen means the baseline predates it — the guard
  // would otherwise silently cover nothing for the new code. Fail with
  // the remedy spelled out instead.
  for (const auto& [name, c] : current) {
    const auto bit = base.find(name);
    if (bit == base.end()) {
      std::printf("FAIL %-26s not in baseline — refresh it with "
                  "`bench_harness run --out BENCH_numaio.json`\n",
                  name.c_str());
      ++failures;
      continue;
    }
    for (const auto& metric : c.metrics) {
      if (bit->second.metrics.count(metric.first) == 0) {
        std::printf("FAIL %-26s metric %s not in baseline — refresh it "
                    "with `bench_harness run --out BENCH_numaio.json`\n",
                    name.c_str(), metric.first.c_str());
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("perf guard: %zu benches within tolerance\n", base.size());
    return 0;
  }
  std::printf("perf guard: %d failure(s)\n", failures);
  return 1;
}

// ---------------------------------------------------------------------
// CLI plumbing, on numaio_cli's exit scheme: 0 ok, 1 runtime failure or
// regression, 2 usage, 3 unreadable file, 4 malformed input.

std::string flag_value(std::vector<std::string>& args,
                       const std::string& flag,
                       const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != flag) continue;
    const std::string value = args[i + 1];
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    return value;
  }
  return fallback;
}

/// `flag VALUE` as a number of type T; a malformed VALUE is a usage error
/// that names the flag.
template <typename T>
T number_flag(std::vector<std::string>& args, const std::string& flag,
              T fallback) {
  const std::string text = flag_value(args, flag, "");
  if (text.empty()) return fallback;
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw StatusError(StatusCode::kUsage,
                      flag + " wants a number, got '" + text + "'");
  }
  return value;
}

bool take_switch(std::vector<std::string>& args, const std::string& flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_harness run [--out FILE] [--reps N]\n"
      "       bench_harness compare BASELINE CURRENT [--wall-tol F]\n"
      "               [--metric-tol F] [--stall-tol F] [--skip-wall]\n"
      "               [--rps-floor F]\n"
      "       bench_harness perturb IN OUT --wall-scale F\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "run") {
      const std::string out_path = flag_value(args, "--out", "");
      const int reps = number_flag(args, "--reps", 25);
      if (!args.empty() || reps < 1) return usage();
      const BenchSet benches = run_benches(reps);
      if (out_path.empty()) {
        write_bench_json(benches, std::cout);
      } else {
        std::ofstream out(out_path, std::ios::binary);
        if (!out) {
          throw StatusError(StatusCode::kNoFile,
                            "cannot write '" + out_path + "'");
        }
        write_bench_json(benches, out);
        std::printf("wrote %zu benches to %s\n", benches.size(),
                    out_path.c_str());
      }
      return 0;
    }
    if (cmd == "compare") {
      CompareOptions options;
      options.wall_tol = number_flag(args, "--wall-tol", 0.20);
      options.metric_tol = number_flag(args, "--metric-tol", 0.01);
      options.stall_tol = number_flag(args, "--stall-tol", 0.02);
      options.rps_floor = number_flag(args, "--rps-floor", 5.0e5);
      options.skip_wall = take_switch(args, "--skip-wall");
      if (args.size() != 2) return usage();
      return compare(load_bench_json(args[0]), load_bench_json(args[1]),
                     options);
    }
    if (cmd == "perturb") {
      const double scale = number_flag(args, "--wall-scale", 1.0);
      if (args.size() != 2) return usage();
      BenchSet benches = load_bench_json(args[0]);
      for (auto& [name, r] : benches) r.wall_ms *= scale;
      std::ofstream out(args[1], std::ios::binary);
      if (!out) {
        throw StatusError(StatusCode::kNoFile,
                          "cannot write '" + args[1] + "'");
      }
      write_bench_json(benches, out);
      return 0;
    }
  } catch (const StatusError& e) {
    std::fprintf(stderr, "bench_harness %s: %s\n", cmd.c_str(), e.what());
    return e.status().exit_code();
  } catch (const std::invalid_argument& e) {
    // A malformed bench JSON file.
    std::fprintf(stderr, "bench_harness %s: %s\n", cmd.c_str(), e.what());
    return static_cast<int>(StatusCode::kParse);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
