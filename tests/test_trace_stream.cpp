// The record-stream core: streaming analysis/export must match the
// in-memory path byte for byte on real captures, the synthetic scale
// source must be deterministic and §4a-well-formed, memory must stay
// bounded (peak open spans) at 10^6 records, and scheduler migration
// chains must stitch into the critical path. The text path round-trips
// random records bit for bit, and its buffered serializers write the
// same bytes as a printf/ostream reference formatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "io/fio.h"
#include "io/testbed.h"
#include "model/perf_report.h"
#include "obs/analysis.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/stream.h"
#include "obs/trace.h"
#include "simcore/rng.h"
#include "simcore/units.h"

namespace numaio::obs {
namespace {

EventFields at(double t_sim) {
  EventFields f;
  f.t_sim = t_sim;
  return f;
}

void expect_same_analysis(const TraceAnalysis& a, const TraceAnalysis& b) {
  EXPECT_EQ(a.num_records, b.num_records);
  EXPECT_DOUBLE_EQ(a.first_ns, b.first_ns);
  EXPECT_DOUBLE_EQ(a.last_ns, b.last_ns);
  EXPECT_DOUBLE_EQ(a.critical_path_ns, b.critical_path_ns);

  ASSERT_EQ(a.span_kinds.size(), b.span_kinds.size());
  for (std::size_t i = 0; i < a.span_kinds.size(); ++i) {
    EXPECT_EQ(a.span_kinds[i].name, b.span_kinds[i].name) << i;
    EXPECT_EQ(a.span_kinds[i].count, b.span_kinds[i].count) << i;
    EXPECT_EQ(a.span_kinds[i].unclosed, b.span_kinds[i].unclosed) << i;
    EXPECT_DOUBLE_EQ(a.span_kinds[i].total_ns, b.span_kinds[i].total_ns)
        << i;
    EXPECT_DOUBLE_EQ(a.span_kinds[i].max_ns, b.span_kinds[i].max_ns) << i;
    EXPECT_EQ(a.span_kinds[i].bytes, b.span_kinds[i].bytes) << i;
    EXPECT_EQ(a.span_kinds[i].outcomes, b.span_kinds[i].outcomes) << i;
  }

  ASSERT_EQ(a.critical_path.size(), b.critical_path.size());
  for (std::size_t i = 0; i < a.critical_path.size(); ++i) {
    EXPECT_EQ(a.critical_path[i].id, b.critical_path[i].id) << i;
    EXPECT_EQ(a.critical_path[i].name, b.critical_path[i].name) << i;
    EXPECT_DOUBLE_EQ(a.critical_path[i].self_ns, b.critical_path[i].self_ns)
        << i;
    EXPECT_DOUBLE_EQ(a.critical_path[i].start_ns,
                     b.critical_path[i].start_ns)
        << i;
    EXPECT_DOUBLE_EQ(a.critical_path[i].end_ns, b.critical_path[i].end_ns)
        << i;
    EXPECT_EQ(a.critical_path[i].outcome, b.critical_path[i].outcome) << i;
    EXPECT_EQ(a.critical_path[i].detail, b.critical_path[i].detail) << i;
  }

  ASSERT_EQ(a.contention.size(), b.contention.size());
  for (std::size_t i = 0; i < a.contention.size(); ++i) {
    EXPECT_EQ(a.contention[i].node_a, b.contention[i].node_a) << i;
    EXPECT_EQ(a.contention[i].node_b, b.contention[i].node_b) << i;
    EXPECT_EQ(a.contention[i].spans, b.contention[i].spans) << i;
    EXPECT_EQ(a.contention[i].bytes, b.contention[i].bytes) << i;
    EXPECT_DOUBLE_EQ(a.contention[i].busy_ns, b.contention[i].busy_ns) << i;
    EXPECT_DOUBLE_EQ(a.contention[i].stall_ns, b.contention[i].stall_ns)
        << i;
  }

  EXPECT_EQ(a.faults.transitions, b.faults.transitions);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.aborts, b.faults.aborts);
  EXPECT_EQ(a.faults.caused, b.faults.caused);
  EXPECT_EQ(a.faults.by_fault, b.faults.by_fault);
}

/// A degraded fio run under an injected fault plan: the richest capture
/// the pipeline produces (transfer spans with bytes and node pairs,
/// fault transitions, retries, aborts, cause edges).
std::vector<Event> degraded_capture() {
  io::Testbed tb = io::Testbed::dl585();
  Context ctx;
  MemorySink capture;
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

  io::FioJob job;
  job.devices = {&tb.nic()};
  job.engine = io::kRdmaRead;
  job.cpu_node = 2;
  job.num_streams = 4;
  job.bytes_per_stream = 40 * sim::kGiB;
  job.retry.timeout = 30.0e9;
  io::FioRunner fio(tb.host());
  fio.set_fault_injector(&injector);
  fio.set_observer(&ctx);
  fio.run(job);
  injector.restore();
  return capture.events;
}

std::string serialize_jsonl(const std::vector<Event>& events) {
  std::ostringstream text;
  JsonlSink sink(text);
  for (const Event& e : events) sink.write(e);
  return text.str();
}

// --- streaming vs in-memory equivalence -----------------------------------

TEST(TraceStream, StreamedAnalysisMatchesInMemoryOnDegradedCapture) {
  const std::vector<Event> events = degraded_capture();
  ASSERT_FALSE(events.empty());
  const TraceAnalysis in_memory = analyze_trace(events);

  // Through the serialized form, the way `report --trace-in` consumes it.
  JsonlTextSource text_source(serialize_jsonl(events));
  const TraceAnalysis streamed = analyze_stream(text_source);
  expect_same_analysis(in_memory, streamed);

  // The analyzer is multi-pass and its memory profile is the point:
  // every pass holds only the open spans of the moment.
  EXPECT_GE(streamed.passes, 1);
  EXPECT_GT(streamed.peak_open_spans, 0u);
  EXPECT_LT(streamed.peak_open_spans,
            static_cast<std::uint64_t>(events.size()));
}

TEST(TraceStream, JsonlFileSourceMatchesInMemory) {
  const std::vector<Event> events = degraded_capture();
  const std::string path = testing::TempDir() + "numaio_stream_eq.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << serialize_jsonl(events);
  }
  JsonlFileSource file_source(path);
  expect_same_analysis(analyze_trace(events), analyze_stream(file_source));
  std::remove(path.c_str());
}

TEST(TraceStream, JsonlFileSourceThrowsOnMissingFile) {
  JsonlFileSource source(testing::TempDir() + "numaio_no_such_capture.jsonl");
  MemorySink sink;
  EXPECT_THROW(source.stream(sink), std::runtime_error);
}

TEST(TraceStream, StreamedChromeExportIsByteIdentical) {
  const std::vector<Event> events = degraded_capture();
  std::ostringstream via_vector;
  export_chrome_trace(events, via_vector);

  JsonlTextSource source(serialize_jsonl(events));
  std::ostringstream via_stream;
  export_chrome_trace(source, via_stream);
  EXPECT_EQ(via_vector.str(), via_stream.str());
}

TEST(TraceStream, StreamedRunReportIsByteIdentical) {
  const std::vector<Event> events = degraded_capture();
  const model::RunReport in_memory =
      model::build_run_report("report --trace-in x", nullptr, events,
                              nullptr);

  JsonlTextSource source(serialize_jsonl(events));
  const model::RunReport streamed =
      model::build_run_report("report --trace-in x", nullptr, source,
                              nullptr);
  EXPECT_EQ(model::render_markdown(in_memory),
            model::render_markdown(streamed));
  EXPECT_EQ(model::render_json(in_memory), model::render_json(streamed));
}

TEST(TraceStream, AuditFaultsMatchesAnalysisAudit) {
  const std::vector<Event> events = degraded_capture();
  VectorSource source(events);
  const FaultAudit audit = audit_faults(source);
  const FaultAudit full = analyze_trace(events).faults;
  EXPECT_EQ(audit.transitions, full.transitions);
  EXPECT_EQ(audit.retries, full.retries);
  EXPECT_EQ(audit.aborts, full.aborts);
  EXPECT_EQ(audit.caused, full.caused);
  EXPECT_EQ(audit.by_fault, full.by_fault);
}

class CountingVisitor final : public TraceVisitor {
 public:
  void record(const Event& e) override {
    ++records_;
    last_id_ = e.id;
  }
  int records() const { return records_; }
  EventId last_id() const { return last_id_; }

 private:
  int records_ = 0;
  EventId last_id_ = 0;
};

TEST(TraceStream, LiveRecorderTapFeedsAVisitorDirectly) {
  // VisitorSink: a live recorder streaming into a visitor with no
  // capture buffer at all.
  CountingVisitor probe;
  VisitorSink tap(probe);
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&tap);
  const SpanId job = trace.begin_span("fio.job", 0, at(0.0));
  const EventId fault =
      trace.event("fault.transition", 0, 0, "degraded", at(1.0));
  trace.event("fio.retry", job, fault, "retry", at(2.0));
  trace.end_span(job, "ok", at(3.0));
  EXPECT_EQ(probe.records(), 4);
  EXPECT_EQ(probe.last_id(), 4);
}

// --- synthetic scale source -----------------------------------------------

TEST(SyntheticTrace, EveryPassRegeneratesIdenticalRecords) {
  SyntheticTraceConfig config;
  config.records = 5000;
  config.seed = 7;
  SyntheticTraceSource source(config);
  MemorySink first;
  MemorySink second;
  source.stream(first);
  source.stream(second);
  ASSERT_EQ(first.events.size(), 5000u);
  ASSERT_EQ(first.events.size(), second.events.size());
  for (std::size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_EQ(first.events[i].id, second.events[i].id) << i;
    EXPECT_EQ(first.events[i].kind, second.events[i].kind) << i;
    EXPECT_EQ(first.events[i].name, second.events[i].name) << i;
    EXPECT_DOUBLE_EQ(first.events[i].t_sim, second.events[i].t_sim) << i;
  }
}

TEST(SyntheticTrace, HonorsRecordOrderGuarantees) {
  SyntheticTraceConfig config;
  config.records = 4000;
  SyntheticTraceSource source(config);
  MemorySink sink;
  source.stream(sink);
  ASSERT_EQ(sink.events.size(), 4000u);

  EventId last_id = 0;
  std::vector<SpanId> open;
  for (const Event& e : sink.events) {
    EXPECT_GT(e.id, last_id);  // monotonic ids
    last_id = e.id;
    if (e.kind == 'B') {
      open.push_back(e.id);
    } else if (e.kind == 'E') {
      // LIFO-compatible nesting: the closed span is currently open.
      auto it = std::find(open.begin(), open.end(), e.span);
      ASSERT_NE(it, open.end()) << "E for a span that is not open";
      open.erase(it);
    } else if (e.parent != 0) {
      EXPECT_LT(e.parent, e.id);  // causes precede consequences
    }
  }
  EXPECT_TRUE(open.empty()) << "generator must close every span";
}

TEST(SyntheticTrace, MillionRecordAnalysisKeepsOpenSpansBounded) {
  SyntheticTraceConfig config;  // 10^6 records, 32-stream window
  SyntheticTraceSource source(config);
  const TraceAnalysis analysis = analyze_stream(source);
  EXPECT_EQ(analysis.num_records, 1000000);
  // The load-bearing invariant: however many records stream through,
  // the analyzer held at most the open-span window (+ the root span).
  EXPECT_LE(analysis.peak_open_spans,
            static_cast<std::uint64_t>(config.concurrent_streams) + 1);
  EXPECT_FALSE(analysis.span_kinds.empty());
  EXPECT_FALSE(analysis.critical_path.empty());
  EXPECT_GT(analysis.faults.transitions, 0);
  EXPECT_GT(analysis.faults.retries, 0);
}

TEST(SyntheticTrace, TinyRequestStillEmitsAWellFormedCapture) {
  SyntheticTraceConfig config;
  config.records = 1;  // below the root B/E + window minimum
  SyntheticTraceSource source(config);
  MemorySink sink;
  source.stream(sink);
  EXPECT_EQ(sink.events.size(), 8u);
  EXPECT_EQ(sink.events.front().kind, 'B');
  EXPECT_EQ(sink.events.back().kind, 'E');
}

// --- scheduler migration stitching ----------------------------------------

TEST(TraceStream, MigrationChainStitchesIntoCriticalPath) {
  // One root span; a fault causes three migrations of the same task.
  // The dominant-leaf pivot is the *last* migration; the earlier ones
  // must be stitched in before it, then the cause chain follows.
  TraceRecorder trace;
  MemorySink sink;
  trace.set_deterministic(true);
  trace.set_sink(&sink);
  const SpanId run = trace.begin_span("online.run", 0, at(0.0));  // id 1
  const EventId fault =
      trace.event("fault.transition", run, 0, "degraded", at(1.0));  // id 2
  EventFields migrate = at(2.0);
  migrate.detail = "task 3";
  trace.event("sched.migrate", run, fault, "moved", migrate);  // id 3
  migrate.t_sim = 3.0;
  trace.event("sched.migrate", run, fault, "moved", migrate);  // id 4
  migrate.t_sim = 4.0;
  trace.event("sched.migrate", run, fault, "moved", migrate);  // id 5
  trace.end_span(run, "ok", at(10.0));

  const TraceAnalysis analysis = analyze_trace(sink.events);
  ASSERT_EQ(analysis.critical_path.size(), 5u);
  EXPECT_EQ(analysis.critical_path[0].name, "online.run");
  EXPECT_EQ(analysis.critical_path[1].id, 3);
  EXPECT_EQ(analysis.critical_path[2].id, 4);
  EXPECT_EQ(analysis.critical_path[3].id, 5);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(analysis.critical_path[static_cast<std::size_t>(i)].name,
              "sched.migrate");
  }
  EXPECT_EQ(analysis.critical_path[4].name, "fault.transition");
  EXPECT_EQ(analysis.critical_path[4].id, 2);
}

TEST(TraceStream, MigrationsOfOtherTasksAreNotStitched) {
  TraceRecorder trace;
  MemorySink sink;
  trace.set_deterministic(true);
  trace.set_sink(&sink);
  const SpanId run = trace.begin_span("online.run", 0, at(0.0));
  const EventId fault =
      trace.event("fault.transition", run, 0, "degraded", at(1.0));
  EventFields other = at(2.0);
  other.detail = "task 1";  // different task: must not ride along
  trace.event("sched.migrate", run, fault, "moved", other);
  EventFields mine = at(3.0);
  mine.detail = "task 3";
  trace.event("sched.migrate", run, fault, "moved", mine);
  trace.end_span(run, "ok", at(10.0));

  const TraceAnalysis analysis = analyze_trace(sink.events);
  // Root span, the pivot migration, its fault — and nothing stitched.
  ASSERT_EQ(analysis.critical_path.size(), 3u);
  EXPECT_EQ(analysis.critical_path[1].name, "sched.migrate");
  EXPECT_EQ(analysis.critical_path[1].detail, "task 3");
  EXPECT_EQ(analysis.critical_path[2].name, "fault.transition");
}

// --- text round trip --------------------------------------------------

/// Doubles the text path must carry exactly: the special values, both
/// sides of the integer fast paths' cut-offs (2^53 for %.17g, 2^42 us =
/// 4398046511104000 ns for Chrome's %.3f), huge values, subnormals and
/// random bit patterns. Never NaN: it has no bit-exact text form.
double pick_double(sim::Rng& rng) {
  static const double kEdges[] = {
      -1.0, -0.0, 0.0, 1.0, 42.0, 1.5, 0.1, -7.25, 123456.789,
      9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
      -9007199254740991.0, -9007199254740992.0, 4503599627370495.5,
      4398046511103999.0, 4398046511104000.0, 4398046511104001.0,
      4398046511103998.5, 4.39e15, 4.4e15, 1e16, 1e17, 1e21, 1e45, 1e300,
      -1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(), 3.999955468730732e-320,
      std::numeric_limits<double>::denorm_min(), 1e-310, -2.5e-315,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  switch (rng.below(4)) {
    case 0:
      return kEdges[rng.below(std::size(kEdges))];
    case 1:  // integral, either side of both cut-offs
      return static_cast<double>(rng.below(std::uint64_t{1} << 54));
    case 2:  // non-integral simulated times
      return rng.uniform(0.0, 1e16);
    default: {
      const double v = std::bit_cast<double>(rng.next_u64());
      return v == v ? v : 0.5;
    }
  }
}

/// Text with every byte class the escaper treats differently: quote,
/// backslash, \n, \t, other control bytes, DEL, bytes >= 0x80, and
/// plain ASCII (including CSV and JSON punctuation).
std::string pick_text(sim::Rng& rng) {
  static const char kSpecial[] = {'"',  '\\', '\n', '\t', '\0', '\x01',
                                  '\x1f', '\r', '\x7f', ',',  ' ',  '{',
                                  '}',  ':',  'u'};
  std::string out;
  const std::uint64_t n = rng.below(14);
  for (std::uint64_t i = 0; i < n; ++i) {
    switch (rng.below(3)) {
      case 0:
        out += kSpecial[rng.below(std::size(kSpecial))];
        break;
      case 1:
        out += static_cast<char>(rng.below(256));
        break;
      default:
        out += static_cast<char>('a' + rng.below(26));
    }
  }
  return out;
}

int pick_node(sim::Rng& rng) {
  static const int kEdges[] = {-1, 0, 7, 4095, 4096, INT_MAX, INT_MIN};
  return rng.below(2) == 0 ? kEdges[rng.below(std::size(kEdges))]
                           : static_cast<int>(rng.below(64));
}

constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;

Event random_event(sim::Rng& rng) {
  Event e;
  e.id = 1 + rng.below(kTwo53);  // ids up to 2^53
  e.span = rng.below(kTwo53 + 1);
  e.parent = rng.below(kTwo53 + 1);
  e.kind = "BEI"[rng.below(3)];
  e.name = pick_text(rng);
  e.node_a = pick_node(rng);
  e.node_b = pick_node(rng);
  e.dir = "wr-"[rng.below(3)];
  switch (rng.below(3)) {
    case 0: e.bytes = -1; break;
    case 1: e.bytes = static_cast<long long>(rng.below(kTwo53 + 1)); break;
    default: e.bytes = -static_cast<long long>(rng.below(kTwo53 + 1));
  }
  e.t_sim = pick_double(rng);
  e.outcome = pick_text(rng);
  e.detail = pick_text(rng);
  // Present (>= 0, -0.0 included) or absent (-1, as a deterministic
  // recorder writes it).
  e.wall_us = rng.below(2) == 0 ? -1.0 : std::abs(pick_double(rng));
  if (rng.below(8) == 0) e.wall_us = -0.0;
  return e;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const Event& a, const Event& b, std::size_t i) {
  EXPECT_EQ(a.id, b.id) << i;
  EXPECT_EQ(a.span, b.span) << i;
  EXPECT_EQ(a.parent, b.parent) << i;
  EXPECT_EQ(a.kind, b.kind) << i;
  EXPECT_EQ(a.name, b.name) << i;
  EXPECT_EQ(a.node_a, b.node_a) << i;
  EXPECT_EQ(a.node_b, b.node_b) << i;
  EXPECT_EQ(a.dir, b.dir) << i;
  EXPECT_EQ(a.bytes, b.bytes) << i;
  EXPECT_EQ(bits(a.t_sim), bits(b.t_sim)) << i << ": " << a.t_sim;
  EXPECT_EQ(a.outcome, b.outcome) << i;
  EXPECT_EQ(a.detail, b.detail) << i;
  EXPECT_EQ(bits(a.wall_us), bits(b.wall_us)) << i << ": " << a.wall_us;
}

// The serializers' formatting before they rendered into buffers: ostream
// integers and characters, %.17g numbers, %.3f Chrome microseconds,
// \u%04x control escapes. The only departure: the old exporter's %.3f
// buffer held 47 characters, so ts/dur from 1e46 ns up came out
// truncated; here they print in full.

std::string ref_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ref_us(double t_sim_ns) {
  char buf[400];
  std::snprintf(buf, sizeof buf, "%.3f",
                t_sim_ns >= 0.0 ? t_sim_ns / 1e3 : 0.0);
  return buf;
}

void ref_escape(std::ostream& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

void ref_quote(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

std::string ref_jsonl(const Event& e) {
  std::ostringstream out;
  out << "{\"id\":" << e.id << ",\"span\":" << e.span
      << ",\"parent\":" << e.parent << ",\"kind\":\"" << e.kind
      << "\",\"name\":\"";
  ref_escape(out, e.name);
  out << "\",\"node_a\":" << e.node_a << ",\"node_b\":" << e.node_b
      << ",\"dir\":\"" << e.dir << "\",\"bytes\":" << e.bytes
      << ",\"t\":" << ref_number(e.t_sim) << ",\"outcome\":\"";
  ref_escape(out, e.outcome);
  out << "\",\"detail\":\"";
  ref_escape(out, e.detail);
  if (e.wall_us >= 0.0) {
    out << "\",\"wall_us\":" << ref_number(e.wall_us) << "}\n";
  } else {
    out << "\"}\n";
  }
  return out.str();
}

std::string ref_csv_row(const Event& e) {
  std::ostringstream out;
  out << e.id << ',' << e.span << ',' << e.parent << ',' << e.kind << ',';
  ref_quote(out, e.name);
  out << ',' << e.node_a << ',' << e.node_b << ',' << e.dir << ','
      << e.bytes << ',' << ref_number(e.t_sim) << ',';
  ref_quote(out, e.outcome);
  out << ',';
  ref_quote(out, e.detail);
  out << ',';
  if (e.wall_us >= 0.0) out << ref_number(e.wall_us);
  out << '\n';
  return out.str();
}

std::string ref_chrome(const std::vector<Event>& events) {
  const auto tid = [](const Event& e) {
    return e.node_a >= 0 ? e.node_a : 4096;
  };
  struct End {
    double t_sim;
    std::string outcome;
    long long bytes;
  };
  std::map<EventId, End> ends;
  std::map<int, bool> tids;
  std::set<EventId> cited;
  for (const Event& e : events) {
    if (e.kind == 'E') {
      ends[e.span] = {e.t_sim, e.outcome, e.bytes};
      continue;
    }
    tids[tid(e)] = true;
    if (e.kind == 'I' && e.parent != 0) cited.insert(e.parent);
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"numaio\"}}";
  for (const auto& [t, used] : tids) {
    out << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (t == 4096) out << "unbound";
    else out << "node " << t;
    out << "\"}}";
  }
  const auto args = [&](const Event& begin, const End* end) {
    out << "\"args\":{\"record\":" << begin.id << ",\"outcome\":\"";
    ref_escape(out, end != nullptr ? end->outcome : begin.outcome);
    out << "\",\"detail\":\"";
    ref_escape(out, begin.detail);
    out << "\",\"node_a\":" << begin.node_a << ",\"node_b\":"
        << begin.node_b << ",\"dir\":\"" << begin.dir << "\",\"bytes\":"
        << (end != nullptr && end->bytes > 0 ? end->bytes : begin.bytes)
        << "}}";
  };
  std::map<EventId, std::pair<int, double>> stubs;
  for (const Event& e : events) {
    if (cited.count(e.id) != 0) stubs[e.id] = {tid(e), e.t_sim};
    if (e.kind == 'E') continue;
    out << ",\n";
    if (e.kind == 'B') {
      const auto it = ends.find(e.id);
      const End* end = it != ends.end() ? &it->second : nullptr;
      if (end != nullptr) {
        const double dur =
            e.t_sim >= 0.0 && end->t_sim >= e.t_sim ? end->t_sim - e.t_sim
                                                    : 0.0;
        out << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid(e)
            << ",\"ts\":" << ref_us(e.t_sim) << ",\"dur\":" << ref_us(dur);
      } else {
        out << "{\"ph\":\"B\",\"pid\":0,\"tid\":" << tid(e)
            << ",\"ts\":" << ref_us(e.t_sim);
      }
      out << ",\"cat\":\"span\",\"name\":\"";
      ref_escape(out, e.name);
      out << "\",";
      args(e, end);
      continue;
    }
    out << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid(e)
        << ",\"ts\":" << ref_us(e.t_sim) << ",\"cat\":\"instant\",\"name\":\"";
    ref_escape(out, e.name);
    out << "\",";
    args(e, nullptr);
    const auto cause = e.parent != 0 ? stubs.find(e.parent) : stubs.end();
    if (cause != stubs.end()) {
      out << ",\n{\"ph\":\"s\",\"pid\":0,\"tid\":" << cause->second.first
          << ",\"ts\":" << ref_us(cause->second.second)
          << ",\"cat\":\"cause\",\"name\":\"cause\",\"id\":" << e.id
          << "},\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":"
          << tid(e) << ",\"ts\":" << ref_us(e.t_sim)
          << ",\"cat\":\"cause\",\"name\":\"cause\",\"id\":" << e.id
          << "}";
    }
  }
  out << "\n]}\n";
  return out.str();
}

/// A capture in record order: ids 1..n, ends closing earlier spans and
/// instants citing earlier records, so the Chrome exporter renders every
/// event shape (complete, open, instant, flow pair) at random times.
std::vector<Event> random_capture(sim::Rng& rng, std::size_t n) {
  std::vector<Event> events;
  std::vector<EventId> begins;
  for (std::size_t i = 0; i < n; ++i) {
    Event e = random_event(rng);
    e.id = static_cast<EventId>(i + 1);
    e.parent = 0;
    if (e.kind == 'E' && begins.empty()) e.kind = 'I';
    if (e.kind == 'B') {
      e.span = e.id;
      begins.push_back(e.id);
    } else if (e.kind == 'E') {
      e.span = begins[rng.below(begins.size())];
    } else if (rng.below(2) == 0 && i > 0) {
      e.parent = 1 + rng.below(i);
    }
    events.push_back(std::move(e));
  }
  return events;
}

class TraceRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceRoundTrip, RandomRecordsComeBackBitForBit) {
  sim::Rng rng(GetParam());
  std::vector<Event> events;
  for (int i = 0; i < 2000; ++i) events.push_back(random_event(rng));

  std::ostringstream text;
  JsonlSink sink(text);
  for (const Event& e : events) sink.write(e);

  // Line by line through parse_trace_line, then the whole document
  // through the streaming source, which reuses one Event for every line.
  MemorySink streamed;
  JsonlTextSource source(text.str());
  source.stream(streamed);
  ASSERT_EQ(streamed.events.size(), events.size());
  std::istringstream lines(text.str());
  std::string line;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    Event expected = events[i];
    if (expected.wall_us < 0.0) expected.wall_us = -1.0;  // omitted
    expect_identical(parse_trace_line(line, static_cast<int>(i) + 1),
                     expected, i);
    expect_identical(streamed.events[i], expected, i);
  }
}

TEST_P(TraceRoundTrip, SinkBytesMatchThePrintfReference) {
  sim::Rng rng(GetParam() + 100);
  std::ostringstream jsonl;
  std::ostringstream csv;
  JsonlSink jsonl_sink(jsonl);
  CsvSink csv_sink(csv);
  std::string want_jsonl;
  std::string want_csv =
      "id,span,parent,kind,name,node_a,node_b,dir,bytes,t,outcome,detail,"
      "wall_us\n";
  for (int i = 0; i < 2000; ++i) {
    const Event e = random_event(rng);
    jsonl_sink.write(e);
    csv_sink.write(e);
    want_jsonl += ref_jsonl(e);
    want_csv += ref_csv_row(e);
  }
  EXPECT_EQ(jsonl.str(), want_jsonl);
  EXPECT_EQ(csv.str(), want_csv);
}

TEST_P(TraceRoundTrip, ChromeBytesMatchThePrintfReference) {
  sim::Rng rng(GetParam() + 200);
  const std::vector<Event> events = random_capture(rng, 1500);
  std::ostringstream chrome;
  export_chrome_trace(events, chrome);
  EXPECT_EQ(chrome.str(), ref_chrome(events));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(TraceRoundTripEdges, FastPathCutOffsMatchPrintf) {
  // Walk both sides of each integer fast path, one ulp at a time.
  const double starts[] = {9007199254740992.0, -9007199254740992.0,
                           4398046511104000.0, 0.0, 1000.0};
  for (const double start : starts) {
    double up = start;
    double down = start;
    for (int i = 0; i < 64; ++i) {
      for (const double v : {up, down}) {
        Event e;
        e.id = 1;
        e.t_sim = v;
        e.wall_us = v >= 0.0 ? v : -1.0;
        std::ostringstream jsonl;
        JsonlSink(jsonl).write(e);
        EXPECT_EQ(jsonl.str(), ref_jsonl(e)) << v;
        std::ostringstream chrome;
        export_chrome_trace(std::vector<Event>{e}, chrome);
        EXPECT_EQ(chrome.str(), ref_chrome({e})) << v;
        expect_identical(parse_trace_line(jsonl.str(), 1), e, 0);
      }
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    }
  }
}

}  // namespace
}  // namespace numaio::obs

namespace numaio::model {
namespace {

/// A deterministic trace-only report over a synthetic capture.
RunReport synthetic_report(std::uint64_t records, std::uint64_t seed) {
  obs::SyntheticTraceConfig config;
  config.records = records;
  config.seed = seed;
  obs::SyntheticTraceSource source(config);
  return build_run_report("report synth", nullptr, source, nullptr);
}

TEST(ReportDiff, ParsesRenderedJsonBack) {
  const RunReport report = synthetic_report(3000, 42);
  const ReportSummary summary = parse_report_json(render_json(report));
  EXPECT_EQ(summary.command, "report synth");
  EXPECT_EQ(summary.records, 3000);
  EXPECT_DOUBLE_EQ(summary.critical_path_ns,
                   report.analysis.critical_path_ns);
  EXPECT_EQ(summary.span_kinds.size(), report.analysis.span_kinds.size());
  EXPECT_EQ(summary.fault_transitions, report.analysis.faults.transitions);
  EXPECT_EQ(summary.retries, report.analysis.faults.retries);
}

TEST(ReportDiff, RejectsMalformedJson) {
  EXPECT_THROW(parse_report_json("not json"), std::invalid_argument);
  EXPECT_THROW(parse_report_json("{\"command\": \"x\"}"),
               std::invalid_argument);
}

TEST(ReportDiff, SelfDiffReportsNoChanges) {
  const ReportSummary s =
      parse_report_json(render_json(synthetic_report(3000, 42)));
  const std::string diff = diff_reports(s, s);
  EXPECT_NE(diff.find("unchanged"), std::string::npos);
  EXPECT_NE(diff.find("+0.000 ms"), std::string::npos);
}

TEST(ReportDiff, ReportsCriticalPathAndSpanDeltas) {
  const ReportSummary before =
      parse_report_json(render_json(synthetic_report(3000, 42)));
  const ReportSummary after =
      parse_report_json(render_json(synthetic_report(6000, 43)));
  const std::string diff = diff_reports(before, after);
  EXPECT_NE(diff.find("- before: `report synth` (3000 records)"),
            std::string::npos);
  EXPECT_NE(diff.find("- after:  `report synth` (6000 records)"),
            std::string::npos);
  EXPECT_NE(diff.find("## Critical path"), std::string::npos);
  EXPECT_NE(diff.find("## Span kinds"), std::string::npos);
  EXPECT_NE(diff.find("synth.stream: count"), std::string::npos);
}

}  // namespace
}  // namespace numaio::model
