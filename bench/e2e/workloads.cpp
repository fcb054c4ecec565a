// The four bench_e2e workloads. Each one builds its inputs from the seed,
// then every rep calls the library's public entry points inside the
// benchmark's own spans and checks what came back.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "e2e.h"
#include "numaio.h"

namespace e2e {
namespace {

using namespace numaio;

/// Takes every trace record the library emits and keeps none: it only
/// sums the wall time of `timed_span` spans from their begin/end wall_us
/// stamps (such spans never nest in each other).
class AggregatingSink final : public obs::TraceSink {
 public:
  explicit AggregatingSink(std::string_view timed_span = {})
      : timed_span_(timed_span) {}

  void write(const obs::Event& event) override {
    if (timed_span_.empty()) return;
    if (event.kind == 'B' && event.name == timed_span_) {
      open_ = event.span;
      open_us_ = event.wall_us;
    } else if (event.kind == 'E' && open_ != 0 && event.span == open_) {
      timed_us_ += event.wall_us - open_us_;
      open_ = 0;
    }
  }

  double timed_ms() const { return timed_us_ / 1000.0; }

 private:
  std::string_view timed_span_;
  obs::SpanId open_ = 0;
  double open_us_ = 0.0;
  double timed_us_ = 0.0;
};

/// Solver counters from a traced rep's registry.
void solver_values(const obs::MetricsRegistry& m, Values& out) {
  for (const char* name : {"solver.solves", "solver.cache_hits",
                           "solver.rounds", "solver.flows_scanned",
                           "solver.resource_touches"}) {
    out[name] = m.value(name);
  }
  const double hits = m.value("solver.cache_hits");
  const double misses = m.value("solver.cache_misses");
  out["solver.cache_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const obs::MetricsRegistry::Histogram* solve_us =
      m.find_histogram("solver.solve_us");
  const double solve_ms = solve_us != nullptr ? solve_us->sum / 1000.0 : 0.0;
  out["solver.solve_ms"] = solve_ms;
  out["solver.solves_per_s"] =
      solve_ms > 0.0 ? m.value("solver.solves") / (solve_ms / 1000.0) : 0.0;
}

// ---------------------------------------------------------------------
// fleet_coarse / fleet_fluid: one FleetSim::run per rep.

/// The scenario's FleetConfig reduced to the fields that change simulated
/// results. The execution knobs documented as results-invariant (shards,
/// queue_shards, event_lanes, solve) keep their FleetConfig{} defaults:
/// the benchmark measures them as shipped and never names them.
fleet::FleetConfig results_config(const fleet::FleetConfig& s) {
  fleet::FleetConfig c;
  c.num_hosts = s.num_hosts;
  c.queue_depth = s.queue_depth;
  c.max_inflight_per_host = s.max_inflight_per_host;
  c.deadline = s.deadline;
  c.retry = s.retry;
  c.breaker = s.breaker;
  c.seed = s.seed;
  c.horizon = s.horizon;
  c.batch_window = s.batch_window;
  c.service_model = s.service_model;
  c.placement = s.placement;
  c.summary_refresh = s.summary_refresh;
  c.alt_sku_every = s.alt_sku_every;
  c.completion_grid = s.completion_grid;
  return c;
}

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const fleet::StormScenario& storm)
      : sim_(results_config(storm.config), storm.tenants) {
    sim_.set_fault_plan(storm.plan);
  }

  RepResult rep(Spans& spans, Checks& checks, bool traced) override {
    obs::Context ctx;
    AggregatingSink sink("fleet.admit_batch");
    if (traced) ctx.trace.set_sink(&sink);
    sim_.set_observer(traced ? &ctx : nullptr);
    const fleet::FleetReport r =
        spans.time("fleet.run", [&] { return sim_.run(); });
    sim_.set_observer(nullptr);

    checks.expect(r.submitted == r.admitted + r.rejected_quota,
                  "fleet: submitted == admitted + rejected_quota");
    checks.expect(r.admitted == r.completed + r.failed + r.shed,
                  "fleet: admitted == completed + failed + shed");
    checks.expect(r.accepted_p99 <= sim_.config().deadline,
                  "fleet: accepted_p99 <= deadline");
    checks.expect(r.completed > 0, "fleet: completed > 0");

    RepResult out;
    out.work = static_cast<double>(r.completed);
    out.digest = digest(r);
    const double run_ms = spans.total_ms(spans.rep(), "fleet.run");
    const double makespan_s = r.makespan / 1e9;
    out.info = {{"sim_makespan_s", makespan_s},
                {"sim_submitted", static_cast<double>(r.submitted)},
                {"sim_completed", static_cast<double>(r.completed)},
                {"sim_shed_fraction", r.shed_fraction},
                {"sim_accepted_p99_ms", r.accepted_p99 / 1e6},
                {"sim_deadline_ms", sim_.config().deadline / 1e6},
                {"sim_dispatch_rps", r.attempts_per_s},
                {"sim_s_per_s", makespan_s / (run_ms / 1e3)}};
    if (traced) {
      const obs::MetricsRegistry& m = ctx.metrics;
      for (const char* name :
           {"fleet.requests", "fleet.admitted", "fleet.shed",
            "fleet.dispatches", "fleet.completed", "fleet.retries",
            "fleet.batch_epochs", "placement.class_spread",
            "placement.class_fallback", "placement.summary_refreshes",
            "engine.lane_events", "engine.lane_rounds"}) {
        out.layer[name] = m.value(name);
      }
      const double dispatches = m.value("fleet.dispatches");
      out.layer["fleet.goodput_ratio"] =
          dispatches > 0.0 ? m.value("fleet.completed") / dispatches : 0.0;
      out.layer["fleet.requests_per_s"] =
          m.value("fleet.requests") / (run_ms / 1000.0);
      out.layer["fleet.admit_ms"] = sink.timed_ms();
      solver_values(m, out.layer);
    }
    return out;
  }

 private:
  static std::uint64_t digest(const fleet::FleetReport& r) {
    Digest d;
    for (const fleet::TenantStats& t : r.tenants) {
      d.add(t.name);
      d.add(t.priority);
      d.add(t.submitted);
      d.add(t.admitted);
      d.add(t.rejected_quota);
      d.add(t.shed);
      d.add(t.completed);
      d.add(t.failed);
      d.add(t.retries);
      d.add(t.goodput_rps);
      d.add(t.latency_p50);
      d.add(t.latency_p99);
    }
    for (const long long v :
         {r.submitted, r.admitted, r.rejected_quota, r.shed, r.completed,
          r.failed, r.retries, r.replaced, r.dispatches}) {
      d.add(v);
    }
    d.add(r.breaker_trips);
    d.add(r.max_queue_depth);
    for (const double v :
         {r.attempts_per_s, r.shed_fraction, r.accepted_p50, r.accepted_p99,
          r.accepted_p999, r.placement_p50, r.placement_p99, r.makespan}) {
      d.add(v);
    }
    return d.value();
  }

  fleet::FleetSim sim_;
};

std::unique_ptr<Workload> make_fleet_coarse(std::uint64_t seed,
                                            double scale) {
  fleet::StormScenario storm = fleet::make_scale_storm(
      /*num_hosts=*/24, /*num_tenants=*/2000, /*offered_rps=*/1.4e6, seed,
      /*horizon=*/0.15e9 * scale);
  // fleet_scale's overrides: RPC-sized payloads, wide per-host
  // concurrency, a fine completion grid, and a queue that holds one
  // admission epoch's arrivals.
  for (fleet::TenantSpec& t : storm.tenants) {
    t.request_bytes = 32 * sim::kKiB;
  }
  storm.config.max_inflight_per_host = 128;
  storm.config.completion_grid = 0.25e6;
  storm.config.queue_depth = 4096;
  return std::make_unique<FleetWorkload>(storm);
}

std::unique_ptr<Workload> make_fleet_fluid(std::uint64_t seed, double scale) {
  return std::make_unique<FleetWorkload>(fleet::make_storm(
      /*num_hosts=*/16, /*num_tenants=*/32, /*offered_rps=*/6000.0, seed,
      /*horizon=*/20.0e9 * scale));
}

// ---------------------------------------------------------------------
// trace_pipeline: synthetic capture -> JSONL text -> analyze, fold, export.

/// An output stream target that keeps nothing: it counts the bytes and
/// hashes them 8 at a time. Hashing happens only on full buffers, whose
/// size is a multiple of 8, so the digest does not depend on where the
/// writer flushes.
class DigestBuf final : public std::streambuf {
 public:
  DigestBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }

  std::uint64_t bytes() const {
    return bytes_ + static_cast<std::uint64_t>(pptr() - pbase());
  }
  std::uint64_t digest() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    std::uint64_t h = hash_;
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(buf_[i])) * 0x100000001b3ull;
    }
    return h ^ bytes();
  }

 protected:
  int_type overflow(int_type ch) override {
    consume();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  void consume() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf_.data() + i, 8);
      hash_ = (hash_ ^ w) * 0x9e3779b97f4a7c15ull;
      hash_ ^= hash_ >> 29;
    }
    bytes_ += n;
    setp(buf_.data(), buf_.data() + buf_.size());
  }

  std::array<char, 1 << 16> buf_{};
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::uint64_t bytes_ = 0;
};

class CountingVisitor final : public obs::TraceVisitor {
 public:
  void record(const obs::Event&) override { ++records; }
  std::uint64_t records = 0;
};

class TraceWorkload final : public Workload {
 public:
  TraceWorkload(std::uint64_t seed, double scale) {
    config_.records = std::max<std::uint64_t>(
        8, static_cast<std::uint64_t>(std::llround(5.0e4 * scale)));
    config_.concurrent_streams = 32;
    config_.seed = seed;
  }

  RepResult rep(Spans& spans, Checks& checks, bool traced) override {
    std::string text = spans.time("obs.write", [&] {
      obs::SyntheticTraceSource source(config_);
      std::ostringstream out;
      obs::JsonlSink sink(out);
      obs::SinkVisitor visitor(sink);
      source.stream(visitor);
      return std::move(out).str();
    });
    capture_bytes_ = static_cast<double>(text.size());
    auto capture = std::make_unique<obs::JsonlTextSource>(std::move(text));

    const obs::TraceAnalysis a = spans.time(
        "obs.analyze", [&] { return obs::analyze_stream(*capture); });
    std::ostringstream folded;
    const obs::FoldStats fold = spans.time("obs.fold", [&] {
      return obs::export_folded_stacks(*capture, folded);
    });
    DigestBuf chrome;
    spans.time("obs.export", [&] {
      std::ostream out(&chrome);
      obs::export_chrome_trace(*capture, out);
      return 0;
    });

    const std::uint64_t records = config_.records;
    const auto bound =
        static_cast<std::uint64_t>(config_.concurrent_streams) + 2;
    checks.expect(static_cast<std::uint64_t>(a.num_records) == records,
                  "trace: analyze_stream record count round-trips");
    checks.expect(fold.records == records,
                  "trace: fold record count round-trips");
    checks.expect(a.peak_open_spans <= bound && fold.peak_open_spans <= bound,
                  "trace: peak_open_spans <= concurrent_streams + 2");
    checks.expect(chrome.bytes() > 0, "trace: chrome export is non-empty");

    RepResult out;
    out.work = static_cast<double>(records);
    out.digest = digest(a, folded.str(), chrome.digest());
    const int rep = spans.rep();
    const double read_ms = spans.total_ms(rep, "obs.analyze") +
                           spans.total_ms(rep, "obs.fold") +
                           spans.total_ms(rep, "obs.export");
    out.info = {{"records", static_cast<double>(records)},
                {"capture_mb", capture_bytes_ / 1e6},
                {"capture_records_per_s",
                 static_cast<double>(records) /
                     (spans.total_ms(rep, "obs.write") / 1e3)},
                {"report_records_per_s",
                 static_cast<double>(records) / (read_ms / 1e3)}};
    if (traced) {
      out.layer["obs.capture_bytes"] = capture_bytes_;
      out.layer["obs.analyze_passes"] = a.passes;
      out.layer["obs.peak_open_spans"] =
          static_cast<double>(a.peak_open_spans);
      out.layer["obs.folded_stacks"] = static_cast<double>(fold.stacks);
      last_capture_ = std::move(capture);
    }
    return out;
  }

  /// The parse bound: a parse-only pass over the capture into a counting
  /// visitor, against a memcpy of the same number of bytes.
  void after_traced_rep(Checks& checks, Values& layer) override {
    if (last_capture_ == nullptr) return;
    CountingVisitor counter;
    const Clock::time_point t0 = Clock::now();
    last_capture_->stream(counter);
    const double parse_ms = ms_between(t0, Clock::now());
    last_capture_.reset();
    checks.expect(counter.records == config_.records,
                  "trace: parse-only record count round-trips");

    const auto bytes = static_cast<std::size_t>(capture_bytes_);
    std::vector<char> src(bytes, 'x');
    std::vector<char> dst(bytes, 0);
    double memcpy_ms = 0.0;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point m0 = Clock::now();
      std::memcpy(dst.data(), src.data(), bytes);
      const double ms = ms_between(m0, Clock::now());
      memcpy_ms = i == 0 ? ms : std::min(memcpy_ms, ms);
    }
    checks.expect(bytes == 0 || dst[bytes / 2] == 'x',
                  "trace: memcpy bound copied the bytes");

    const double mb = capture_bytes_ / 1e6;
    layer["obs.parse_mb_per_s"] = parse_ms > 0.0 ? mb / (parse_ms / 1e3) : 0.0;
    layer["obs.memcpy_mb_per_s"] =
        memcpy_ms > 0.0 ? mb / (memcpy_ms / 1e3) : 0.0;
    layer["obs.parse_bound_frac"] =
        parse_ms > 0.0 ? memcpy_ms / parse_ms : 0.0;
  }

 private:
  static std::uint64_t digest(const obs::TraceAnalysis& a,
                              const std::string& folded,
                              std::uint64_t chrome) {
    Digest d;
    d.add(a.num_records);
    d.add(a.first_ns);
    d.add(a.last_ns);
    for (const obs::SpanKindStats& k : a.span_kinds) {
      d.add(k.name);
      d.add(k.count);
      d.add(k.unclosed);
      d.add(k.total_ns);
      d.add(k.max_ns);
      d.add(k.bytes);
      for (const auto& [outcome, n] : k.outcomes) {
        d.add(outcome);
        d.add(n);
      }
    }
    for (const obs::CriticalPathStep& s : a.critical_path) {
      d.add(s.id);
      d.add(s.name);
      d.add(s.outcome);
      d.add(s.detail);
      d.add(s.start_ns);
      d.add(s.end_ns);
      d.add(s.self_ns);
    }
    d.add(a.critical_path_ns);
    for (const obs::ContentionCell& c : a.contention) {
      d.add(c.node_a);
      d.add(c.node_b);
      d.add(c.spans);
      d.add(c.bytes);
      d.add(c.busy_ns);
      d.add(c.stall_ns);
    }
    d.add(a.faults.transitions);
    d.add(a.faults.retries);
    d.add(a.faults.aborts);
    d.add(a.faults.caused);
    for (const auto& [label, n] : a.faults.by_fault) {
      d.add(label);
      d.add(n);
    }
    d.add(folded);
    d.add(chrome);
    return d.value();
  }

  obs::SyntheticTraceConfig config_;
  double capture_bytes_ = 0.0;
  std::unique_ptr<obs::JsonlTextSource> last_capture_;
};

std::unique_ptr<Workload> make_trace_pipeline(std::uint64_t seed,
                                              double scale) {
  return std::make_unique<TraceWorkload>(seed, scale);
}

// ---------------------------------------------------------------------
// paper_characterize: the paper's pipeline, host after host.

enum class Sku { kDl585, kLite, kNode1 };

io::Testbed make_testbed(Sku sku) {
  switch (sku) {
    case Sku::kDl585:
      return io::Testbed::dl585();
    case Sku::kLite:
      return io::Testbed::dl585_lite();
    case Sku::kNode1:
      break;
  }
  return io::Testbed::dl585_with_devices_on(1);
}

class PaperWorkload final : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, double scale)
      : seed_(seed),
        hosts_(std::max(3, static_cast<int>(std::lround(120.0 * scale)))) {}

  RepResult rep(Spans& spans, Checks& checks, bool traced) override {
    obs::Context ctx;
    AggregatingSink sink;
    if (traced) ctx.trace.set_sink(&sink);
    Digest d;
    RepResult out;
    for (int i = 0; i < hosts_; ++i) {
      const auto sku = static_cast<Sku>(i % 3);
      io::Testbed tb =
          spans.time("fabric.testbed", [&] { return make_testbed(sku); });
      if (traced) tb.machine().solver().set_observer(&ctx);
      const mem::BandwidthMatrix bw = spans.time(
          "mem.stream", [&] { return mem::stream_matrix(tb.host()); });
      model::CharacterizeConfig cc;
      cc.iomodel.seed = seed_ + static_cast<std::uint64_t>(i);
      if (traced) cc.iomodel.obs = &ctx;
      const model::HostModel hm = spans.time("model.characterize", [&] {
        return model::characterize_host(tb.host(), cc);
      });
      const model::ValidationReport v = spans.time(
          "model.validate", [&] { return model::validate_methodology(tb); });
      double host_ms = 0.0;
      for (auto it = spans.all().end() - 4; it != spans.all().end(); ++it) {
        host_ms += it->ms;
      }
      out.item_ms.push_back(host_ms);

      check_host(sku, hm, v, checks);
      for (const auto& row : bw.bw) {
        for (const double g : row) d.add(g);
      }
      d.add(model::serialize(hm));
      for (const model::ClaimResult& c : v.claims) {
        d.add(c.name);
        d.add(c.passed ? 1 : 0);
        d.add(c.value);
      }
    }

    out.work = hosts_;
    out.digest = d.value();
    out.info = {{"hosts_per_rep", static_cast<double>(hosts_)},
                {"eq1_rel_err", eq1_rel_err_},
                {"node1_failed_claims",
                 static_cast<double>(std::count(node1_passed_.begin(),
                                                node1_passed_.end(), false))}};
    if (traced) {
      out.layer["iomodel.reps"] = ctx.metrics.value("iomodel.reps");
      solver_values(ctx.metrics, out.layer);
    }
    return out;
  }

 private:
  void check_host(Sku sku, const model::HostModel& hm,
                  const model::ValidationReport& v, Checks& checks) {
    std::vector<bool> passed;
    for (const model::ClaimResult& c : v.claims) passed.push_back(c.passed);
    switch (sku) {
      case Sku::kDl585: {
        // Table IV: node 7's write classes.
        const std::vector<std::vector<topo::NodeId>> table4{
            {6, 7}, {0, 1, 4, 5}, {2, 3}};
        checks.expect(
            hm.classes_for(7, model::Direction::kDeviceWrite).classes ==
                table4,
            "paper: dl585 node 7 write classes match Table IV");
        checks.expect(v.all_passed(), "paper: dl585 passes validation");
        for (const model::ClaimResult& c : v.claims) {
          if (c.name == "Eq.1 prediction error") eq1_rel_err_ = c.value;
        }
        break;
      }
      case Sku::kLite:
        checks.expect(v.all_passed(), "paper: dl585_lite passes validation");
        break;
      case Sku::kNode1:
        if (node1_passed_.empty()) node1_passed_ = passed;
        checks.expect(passed == node1_passed_,
                      "paper: devices-on-node-1 claim vector is stable");
        break;
    }
  }

  std::uint64_t seed_;
  int hosts_;
  double eq1_rel_err_ = 0.0;
  std::vector<bool> node1_passed_;
};

std::unique_ptr<Workload> make_paper_characterize(std::uint64_t seed,
                                                  double scale) {
  return std::make_unique<PaperWorkload>(seed, scale);
}

}  // namespace

double Spans::total_ms(int rep, const char* stage) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.rep != rep) continue;
    if (stage == nullptr || std::strcmp(s.stage, stage) == 0) total += s.ms;
  }
  return total;
}

void Spans::close(const char* stage, Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  spans_.push_back(Span{stage, rep_, ms_between(start, end)});
}

void Checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.emplace_back(what);
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads{
      {"fleet_coarse", 11, make_fleet_coarse},
      {"fleet_fluid", 11, make_fleet_fluid},
      {"trace_pipeline", 42, make_trace_pipeline},
      {"paper_characterize", 20130777, make_paper_characterize},
  };
  return kWorkloads;
}

}  // namespace e2e
