// Observability layer tests: span nesting and cause edges through
// MemorySink, null-sink no-op guarantees, JSONL/CSV serialization,
// histogram bucket-edge semantics, metrics JSON round-trip, the shared
// JSON reader, scoped timers and the known-metrics catalogue.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"

namespace numaio::obs {
namespace {

// --- trace recorder -------------------------------------------------------

TEST(TraceRecorder, SpanNestingAndCauseEdges) {
  MemorySink sink;
  TraceRecorder trace;
  trace.set_sink(&sink);
  ASSERT_TRUE(trace.enabled());

  EventFields job_fields;
  job_fields.node_a = 2;
  job_fields.bytes = 4096;
  const SpanId job = trace.begin_span("fio.job", 0, job_fields);
  const SpanId stream = trace.begin_span("fio.stream", job);
  const EventId fault = trace.event("fault.transition", 0, 0, "on");
  const EventId abort_id =
      trace.event("fio.abort", stream, fault, "abort");
  trace.end_span(stream, "aborted");
  trace.end_span(job, "degraded");

  ASSERT_EQ(sink.events.size(), 6u);
  // Ids are unique and monotonically increasing.
  for (std::size_t i = 1; i < sink.events.size(); ++i) {
    EXPECT_GT(sink.events[i].id, sink.events[i - 1].id) << i;
  }
  EXPECT_EQ(trace.records_emitted(), 6u);

  const Event& b_job = sink.events[0];
  EXPECT_EQ(b_job.kind, 'B');
  EXPECT_EQ(b_job.name, "fio.job");
  EXPECT_EQ(b_job.id, job);
  EXPECT_EQ(b_job.span, job);  // a begin record's span is its own id
  EXPECT_EQ(b_job.parent, 0u);
  EXPECT_EQ(b_job.node_a, 2);
  EXPECT_EQ(b_job.bytes, 4096);

  const Event& b_stream = sink.events[1];
  EXPECT_EQ(b_stream.kind, 'B');
  EXPECT_EQ(b_stream.span, stream);
  EXPECT_EQ(b_stream.parent, job);  // nesting via the parent field

  const Event& i_abort = sink.events[3];
  EXPECT_EQ(i_abort.kind, 'I');
  EXPECT_EQ(i_abort.id, abort_id);
  EXPECT_EQ(i_abort.span, stream);
  EXPECT_EQ(i_abort.parent, fault);  // the cause edge
  EXPECT_EQ(i_abort.outcome, "abort");

  const Event& e_stream = sink.events[4];
  EXPECT_EQ(e_stream.kind, 'E');
  EXPECT_EQ(e_stream.span, stream);
  EXPECT_EQ(e_stream.outcome, "aborted");
  const Event& e_job = sink.events[5];
  EXPECT_EQ(e_job.span, job);
  EXPECT_EQ(e_job.outcome, "degraded");
}

TEST(TraceRecorder, NullSinkIsANoOp) {
  TraceRecorder trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(trace.begin_span("fio.job"), 0u);
  EXPECT_EQ(trace.event("fio.retry", 7, 3, "retry"), 0u);
  trace.end_span(42, "ok");  // must not crash or record
  EXPECT_EQ(trace.records_emitted(), 0u);

  // Detaching returns to the no-op state; ids keep advancing only while a
  // sink is attached.
  MemorySink sink;
  trace.set_sink(&sink);
  const SpanId s = trace.begin_span("probe");
  trace.set_sink(nullptr);
  EXPECT_EQ(trace.event("ignored", s), 0u);
  EXPECT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(trace.records_emitted(), 1u);
}

TEST(TraceRecorder, JsonlSinkShape) {
  std::ostringstream out;
  JsonlSink sink(out);
  TraceRecorder trace;
  trace.set_sink(&sink);

  EventFields fields;
  fields.node_a = 1;
  fields.node_b = 3;
  fields.dir = 'w';
  fields.bytes = 1024;
  fields.t_sim = 2.5e9;
  fields.detail = "say \"hi\"";
  const SpanId span = trace.begin_span("iomodel.probe", 0, fields);
  trace.end_span(span, "ok");

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> records;
  while (std::getline(lines, line)) records.push_back(line);
  ASSERT_EQ(records.size(), 2u);

  const std::string& begin = records[0];
  EXPECT_EQ(begin.rfind("{\"id\":1,\"span\":1,\"parent\":0,\"kind\":\"B\","
                        "\"name\":\"iomodel.probe\"",
                        0),
            0u);
  EXPECT_NE(begin.find("\"node_a\":1"), std::string::npos);
  EXPECT_NE(begin.find("\"node_b\":3"), std::string::npos);
  EXPECT_NE(begin.find("\"dir\":\"w\""), std::string::npos);
  EXPECT_NE(begin.find("\"bytes\":1024"), std::string::npos);
  EXPECT_NE(begin.find("\"detail\":\"say \\\"hi\\\"\""), std::string::npos);
  // wall_us is the only nondeterministic field and is serialized last so
  // textual strippers can remove it.
  EXPECT_NE(begin.find(",\"wall_us\":"), std::string::npos);
  EXPECT_LT(begin.find("\"outcome\""), begin.find("\"wall_us\""));
  EXPECT_EQ(begin.back(), '}');

  EXPECT_NE(records[1].find("\"kind\":\"E\""), std::string::npos);
  EXPECT_NE(records[1].find("\"outcome\":\"ok\""), std::string::npos);
}

TEST(TraceRecorder, CsvSinkHeaderAndQuoting) {
  std::ostringstream out;
  CsvSink sink(out);
  TraceRecorder trace;
  trace.set_sink(&sink);

  EventFields fields;
  fields.detail = "a \"quoted\" word, and a comma";
  trace.event("sched.place", 0, 0, "model", fields);

  std::istringstream lines(out.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(header,
            "id,span,parent,kind,name,node_a,node_b,dir,bytes,t,outcome,"
            "detail,wall_us");
  // RFC 4180: strings quoted, inner quotes doubled; commas stay inside.
  EXPECT_NE(row.find("\"sched.place\""), std::string::npos);
  EXPECT_NE(row.find("\"a \"\"quoted\"\" word, and a comma\""),
            std::string::npos);
  std::string rest;
  EXPECT_FALSE(std::getline(lines, rest));  // one row per record
}

TEST(TraceRecorder, SameWorkloadEmitsIdenticalRecordsModuloWallClock) {
  const auto run = [] {
    MemorySink sink;
    TraceRecorder trace;
    trace.set_sink(&sink);
    const SpanId span = trace.begin_span("fio.job");
    EventFields fields;
    fields.bytes = 512;
    trace.event("fio.attempt", span, 0, {}, fields);
    trace.end_span(span, "ok");
    return sink.events;
  };
  const std::vector<Event> a = run();
  const std::vector<Event> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].span, b[i].span) << i;
    EXPECT_EQ(a[i].parent, b[i].parent) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
    EXPECT_EQ(a[i].outcome, b[i].outcome) << i;
    // wall_us deliberately not compared: it is the one wall-clock field.
  }
}

// --- metrics registry -----------------------------------------------------

TEST(Metrics, CountersAndGaugesAccumulate) {
  MetricsRegistry m;
  const auto retries = m.counter("fio.retries");
  EXPECT_EQ(m.counter("fio.retries"), retries);  // get-or-create is stable
  m.add(retries);
  m.add(retries, 3.0);
  EXPECT_EQ(m.value("fio.retries"), 4.0);

  const auto depth = m.gauge("queue.depth");
  m.set(depth, 7.0);
  m.set(depth, 2.0);
  EXPECT_EQ(m.value("queue.depth"), 2.0);  // last write wins
  EXPECT_EQ(m.value("never.registered"), 0.0);
  EXPECT_FALSE(m.empty());
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry m;
  m.counter("x");
  EXPECT_THROW(m.gauge("x"), std::invalid_argument);
  EXPECT_THROW(m.histogram("x", {1.0}), std::invalid_argument);
  m.histogram("h", {1.0, 2.0});
  EXPECT_THROW(m.counter("h"), std::invalid_argument);
  EXPECT_THROW(m.histogram("h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(m.histogram("bad", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(m.histogram("bad", {}), std::invalid_argument);
}

TEST(Metrics, HistogramBucketEdgesAreInclusive) {
  MetricsRegistry m;
  const auto h = m.histogram("lat", {10.0, 20.0});
  m.observe(h, 0.0);    // <= 10
  m.observe(h, 10.0);   // exactly on the edge: still the first bucket
  m.observe(h, 10.5);   // (10, 20]
  m.observe(h, 20.0);   // edge of the second bucket
  m.observe(h, 20.001);  // overflow
  const MetricsRegistry::Histogram* hist = m.find_histogram("lat");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->counts.size(), 3u);  // bounds + overflow
  EXPECT_EQ(hist->counts[0], 2u);
  EXPECT_EQ(hist->counts[1], 2u);
  EXPECT_EQ(hist->counts[2], 1u);
  EXPECT_EQ(hist->count, 5u);
  EXPECT_DOUBLE_EQ(hist->sum, 0.0 + 10.0 + 10.5 + 20.0 + 20.001);
  EXPECT_EQ(m.find_histogram("absent"), nullptr);
}

TEST(Metrics, NoneIdIsANoOpEverywhere) {
  MetricsRegistry m;
  m.add(MetricsRegistry::kNone);
  m.set(MetricsRegistry::kNone, 5.0);
  m.observe(MetricsRegistry::kNone, 5.0);
  EXPECT_TRUE(m.empty());
}

TEST(Metrics, JsonRoundTripIsExact) {
  MetricsRegistry m;
  m.add(m.counter("fio.retries"), 3.0);
  m.add(m.counter("solver.iterations"), 17.0);
  m.set(m.gauge("model.revision"), 2.0);
  const auto h = m.histogram("solver.solve_us", {1.0, 10.0, 100.0});
  m.observe(h, 0.5);
  m.observe(h, 42.0);
  m.observe(h, 5000.0);

  const std::string json = m.to_json();
  const MetricsRegistry parsed = parse_metrics_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.value("fio.retries"), 3.0);
  const MetricsRegistry::Histogram* hist =
      parsed.find_histogram("solver.solve_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_DOUBLE_EQ(hist->sum, 0.5 + 42.0 + 5000.0);

  EXPECT_THROW(parse_metrics_json("{\"bogus\": {}}"), std::invalid_argument);
  EXPECT_THROW(parse_metrics_json("{} trailing"), std::invalid_argument);
}

TEST(Metrics, JsonRoundTripKeepsASubnormalGauge) {
  MetricsRegistry m;
  m.set(m.gauge("tiny"), 4e-320);
  m.add(m.counter("big"), 1.7976931348623157e308);
  const std::string json = m.to_json();
  const MetricsRegistry parsed = parse_metrics_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.value("tiny")),
            std::bit_cast<std::uint64_t>(4e-320));
  // The number grammar is std::from_chars': no '+', no hex.
  EXPECT_THROW(parse_metrics_json("{\"gauges\": {\"x\": +5}}"),
               std::invalid_argument);
  EXPECT_THROW(parse_metrics_json("{\"gauges\": {\"x\": 0x10}}"),
               std::invalid_argument);
}

TEST(Metrics, ParseRejectsHistogramCountsOutsideUint64) {
  // A bucket count becomes a uint64_t: anything but a whole number in
  // [0, 2^64) is refused rather than cast (undefined for nan and 1e300,
  // truncating for 1.5).
  const auto doc = [](const std::string& counts) {
    return "{\"histograms\": {\"h\": {\"bounds\": [1], \"counts\": [" +
           counts + "], \"count\": 3, \"sum\": 3}}}";
  };
  for (const char* counts : {"nan, 2", "-nan, 2", "1e300, 2", "1.5, 2",
                             "-1, 2", "inf, 2", "18446744073709551616, 2"}) {
    EXPECT_THROW(parse_metrics_json(doc(counts)), std::invalid_argument)
        << counts;
  }
  // The largest double below 2^64 is whole and fits.
  const MetricsRegistry parsed =
      parse_metrics_json(doc("18446744073709549568, 2"));
  const MetricsRegistry::Histogram* h = parsed.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts[0], 18446744073709549568u);
  EXPECT_EQ(h->counts[1], 2u);
}

TEST(Metrics, ParseRejectsHistogramsTheRegistryWouldRefuse) {
  // Parsed histograms obey the registration rules: an empty bounds list
  // (whose summary() would read bounds.back()), unsorted bounds, or a
  // name a counter already holds.
  const auto doc = [](const std::string& before, const std::string& bounds,
                      const std::string& counts) {
    return "{" + before + "\"histograms\": {\"h\": {\"bounds\": [" + bounds +
           "], \"counts\": [" + counts + "], \"count\": 0, \"sum\": 0}}}";
  };
  EXPECT_NO_THROW(parse_metrics_json(doc("", "1, 2", "0, 0, 0")));
  EXPECT_THROW(parse_metrics_json(doc("", "", "5")), std::invalid_argument);
  EXPECT_THROW(parse_metrics_json(doc("", "2, 1", "0, 0, 0")),
               std::invalid_argument);
  EXPECT_THROW(
      parse_metrics_json(doc("\"counters\": {\"h\": 1}, ", "1", "0, 0")),
      std::invalid_argument);
}

TEST(Metrics, EmptyRegistrySerializesAndSummarizes) {
  MetricsRegistry m;
  const MetricsRegistry parsed = parse_metrics_json(m.to_json());
  EXPECT_TRUE(parsed.empty());
  EXPECT_NE(m.summary().find("no metrics recorded"), std::string::npos);
}

TEST(Metrics, JsonDecodesStandardEscapes) {
  // The metrics reader once kept the letter after a backslash, reading
  // these names as "fleet.goodputu005frps" and "anb".
  const MetricsRegistry parsed = parse_metrics_json(
      "{\"gauges\": {\"fleet.goodput\\u005frps\": 1, \"a\\nb\": 2}}");
  const std::vector<MetricsRegistry::NamedValue> gauges =
      parsed.gauge_values();
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[0].name, "a\nb");
  EXPECT_EQ(gauges[1].name, "fleet.goodput_rps");
  EXPECT_EQ(parsed.value("fleet.goodput_rps"), 1.0);
}

TEST(Metrics, JsonEscapesControlCharactersInNames) {
  MetricsRegistry m;
  m.set(m.gauge(std::string("bell\x07tab\tnul") + '\0'), 3.0);
  const std::string json = m.to_json();
  // Raw control characters are invalid JSON; they go out escaped.
  EXPECT_NE(json.find("\"bell\\u0007tab\\tnul\\u0000\""), std::string::npos)
      << json;
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20 && c != '\n';
  }));
  const MetricsRegistry parsed = parse_metrics_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.value(std::string("bell\x07tab\tnul") + '\0'), 3.0);
}

TEST(Metrics, JsonNestingIsCappedAt64) {
  const std::string doc =
      "{\"gauges\": {\"x\": " + std::string(30000, '[');
  try {
    parse_metrics_json(doc);
    FAIL() << "accepted 30,000 nested arrays";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64"),
              std::string::npos)
        << e.what();
  }
}

// --- the shared JSON reader and writer helpers -----------------------------

TEST(Json, DecodesUnicodeEscapesAsUtf8) {
  // U+00E9, U+20AC and U+1F600, the last as a surrogate pair.
  EXPECT_EQ(json::parse("\"\\u00e9\\u20AC\\ud83d\\ude00\"").str,
            "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(json::parse("\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"").str,
            "\"\\/\b\f\n\r\t");
  for (const char* bad : {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83d\\u0041\"",
                          "\"\\u12\"", "\"\\u-123\"", "\"\\x41\""}) {
    EXPECT_THROW(json::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, NumbersFollowTheFromCharsGrammar) {
  EXPECT_EQ(json::parse("-2.5e3").num, -2500.0);
  EXPECT_TRUE(std::isinf(json::parse("inf").num));
  EXPECT_TRUE(std::isnan(json::parse("nan").num));
  for (const char* bad : {"+5", "0x10", "1e400", " -", "1e"}) {
    EXPECT_THROW(json::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, SyntaxErrorsNameTheByteOffset) {
  try {
    json::parse("{\"a\": 1 \"b\": 2}");
    FAIL() << "accepted a missing comma";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected '}' at offset 8"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, ObjectsKeepMembersInDocumentOrder) {
  const json::Value v =
      json::parse("{\"b\": 1, \"a\": [true, null], \"b\": 2}");
  ASSERT_EQ(v.kind, json::Value::Kind::kObject);
  ASSERT_EQ(v.fields.size(), 3u);
  EXPECT_EQ(v.fields[0].first, "b");
  EXPECT_EQ(v.fields[1].first, "a");
  EXPECT_EQ(v.find("b")->num, 1.0);  // the first of a duplicate key
  const json::Value& a = *v.find("a");
  ASSERT_EQ(a.items.size(), 2u);
  EXPECT_TRUE(a.items[0].boolean);
  EXPECT_EQ(a.items[1].kind, json::Value::Kind::kNull);
  EXPECT_EQ(v.find("c"), nullptr);
}

TEST(Json, QuoteAndNumberWriteWhatParseReads) {
  const std::string name = std::string("q\"b\\n\nc\x01") + '\x7f';
  EXPECT_EQ(json::quote(name), "\"q\\\"b\\\\n\\nc\\u0001\x7f\"");
  EXPECT_EQ(json::parse(json::quote(name)).str, name);
  EXPECT_EQ(json::number(0.1), "0.10000000000000001");
  EXPECT_EQ(json::number(-0.0), "-0");
  EXPECT_EQ(json::number(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(json::parse(json::number(0.1)).num, 0.1);
}

// --- scoped timer ---------------------------------------------------------

TEST(ScopedTimerTest, ObservesOnDestruction) {
  MetricsRegistry m;
  const auto h = m.histogram("op.us", {1.0e9});  // everything lands <= 1e9
  const auto total = m.counter("op.total_ns");
  {
    ScopedTimer timer(&m, h, total);
  }
  const MetricsRegistry::Histogram* hist = m.find_histogram("op.us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_GE(m.value("op.total_ns"), 0.0);
}

TEST(ScopedTimerTest, NullRegistryIsSafe) {
  ScopedTimer timer(nullptr, MetricsRegistry::kNone);
  // Destruction must be a no-op; nothing to assert beyond not crashing.
}

// --- metric catalogue -----------------------------------------------------

TEST(KnownMetrics, CatalogueIsSortedAndDescribed) {
  const std::vector<MetricInfo> metrics = known_metrics();
  ASSERT_FALSE(metrics.empty());
  for (std::size_t i = 1; i < metrics.size(); ++i) {
    EXPECT_LT(std::string(metrics[i - 1].name), std::string(metrics[i].name))
        << i;
  }
  bool has_retries = false;
  for (const MetricInfo& m : metrics) {
    EXPECT_NE(std::string(m.help), "");
    const std::string kind = m.kind;
    EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
        << m.name;
    has_retries |= std::string(m.name) == "fio.retries";
  }
  EXPECT_TRUE(has_retries);
}

}  // namespace
}  // namespace numaio::obs
