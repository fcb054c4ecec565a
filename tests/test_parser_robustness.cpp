// Robustness property tests for the text parsers (fio job files,
// host-model documents, transfer traces, JSONL trace captures, metrics
// JSON, fault plans, saved JSON run reports, the telemetry server's
// request line): random single-character mutations of valid documents
// must either parse or throw std::invalid_argument — never crash, never
// hang, never corrupt state. The JSONL number grammar (std::from_chars)
// and the whole-token grammar every other text input shares
// (obs::text::parse_number) are pinned here too.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "faults/fault_plan.h"
#include "io/jobfile.h"
#include "io/trace.h"
#include "model/characterize.h"
#include "model/perf_report.h"
#include "nm/cores.h"
#include "nm/policy.h"
#include "obs/analysis.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/serve.h"
#include "obs/text.h"
#include "obs/trace.h"
#include "simcore/rng.h"
#include "simcore/status.h"
#include "topo/presets.h"

namespace numaio {
namespace {

const char kJobFile[] =
    "[global]\nioengine=rdma\nrw=read\nbs=128k\niodepth=16\nnumjobs=4\n"
    "[a]\ncpunodebind=2\n[b]\ncpunodebind=0\nnumjobs=2\n";

const char kTrace[] =
    "# log\n0.0,rdma_write,7,32\n1.25,tcp_recv,2,8\n2.5,ssd_read,0,16\n";

std::string valid_model_doc() {
  return "numaio-model v1\n"
         "host tiny nodes 2\n"
         "model 0 write 50.0 40.0\n"
         "classes 0 write 1 { 0 1 }\n"
         "model 0 read 50.0 41.0\n"
         "classes 0 read 1 { 0 1 }\n"
         "model 1 write 39.0 52.0\n"
         "classes 1 write 1 { 0 1 }\n"
         "model 1 read 38.0 52.0\n"
         "classes 1 read 1 { 0 1 }\n"
         "end\n";
}

std::string mutate(const std::string& doc, sim::Rng& rng) {
  std::string out = doc;
  const auto pos = rng.below(out.size());
  switch (rng.below(3)) {
    case 0:  // flip a character
      out[pos] = static_cast<char>(' ' + rng.below(95));
      break;
    case 1:  // delete a character
      out.erase(pos, 1);
      break;
    default:  // duplicate a character
      out.insert(pos, 1, out[pos]);
      break;
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, JobFileNeverCrashes) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(kJobFile, rng);
    try {
      const auto parsed = io::parse_job_file(doc);
      EXPECT_FALSE(parsed.jobs.empty());  // success implies jobs exist
    } catch (const std::invalid_argument&) {
      // acceptable outcome
    }
  }
}

TEST_P(ParserFuzz, HostModelNeverCrashes) {
  sim::Rng rng(GetParam() + 1000);
  const std::string base = valid_model_doc();
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      const auto parsed = model::parse_host_model(doc);
      EXPECT_EQ(parsed.num_nodes, 2);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, TraceNeverCrashes) {
  sim::Rng rng(GetParam() + 2000);
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(kTrace, rng);
    try {
      const auto parsed = io::parse_trace(doc);
      EXPECT_FALSE(parsed.empty());
    } catch (const std::invalid_argument&) {
    }
  }
}

/// A JsonlSink capture with every escape class and wall-clock fields.
std::string jsonl_capture() {
  std::ostringstream text;
  obs::JsonlSink sink(text);
  obs::Event begin;
  begin.id = 1;
  begin.span = 1;
  begin.kind = 'B';
  begin.name = "fio.job";
  begin.node_a = 2;
  begin.node_b = 7;
  begin.dir = 'w';
  begin.bytes = 4096;
  begin.t_sim = 1.5;
  begin.detail = "quote \" slash \\ nl \n tab \t bell \x07";
  begin.wall_us = 12.25;
  sink.write(begin);
  obs::Event retry;
  retry.id = 2;
  retry.span = 1;
  retry.parent = 1;
  retry.name = "fio.retry";
  retry.outcome = "retry";
  retry.t_sim = 3e-5;
  retry.wall_us = 40.0;
  sink.write(retry);
  obs::Event end;
  end.id = 3;
  end.span = 1;
  end.kind = 'E';
  end.outcome = "ok";
  end.t_sim = 9007199254740993.0;
  end.wall_us = -1.0;  // omitted
  sink.write(end);
  return text.str();
}

TEST_P(ParserFuzz, TraceJsonlNeverCrashes) {
  sim::Rng rng(GetParam() + 3000);
  const std::string base = jsonl_capture();
  ASSERT_EQ(obs::parse_trace_jsonl(base).size(), 3u);
  for (int i = 0; i < 400; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      const std::vector<obs::Event> parsed = obs::parse_trace_jsonl(doc);
      EXPECT_LE(parsed.size(), 3u);
    } catch (const std::invalid_argument& e) {
      // Every rejection names the offending line of the 3-line capture.
      const std::string what = e.what();
      EXPECT_TRUE(what.rfind("trace line 1: ", 0) == 0 ||
                  what.rfind("trace line 2: ", 0) == 0 ||
                  what.rfind("trace line 3: ", 0) == 0)
          << what;
    }
  }
}

/// A to_json() document with counters, gauges (a negative and a subnormal
/// one among them) and a histogram: the shape of a bench baseline plus
/// everything else the format carries.
std::string metrics_document() {
  obs::MetricsRegistry m;
  m.add(m.counter("fio.retries"), 6.0);
  m.add(m.counter("solver.rounds"), 5133.0);
  m.set(m.gauge("fleet_scale.sim_dispatch_rps"), 1389779.7137523335);
  m.set(m.gauge("model.drift"), -0.25);
  m.set(m.gauge("tiny"), 4e-320);
  const auto h = m.histogram("solver.rounds_per_solve", {1.0, 2.0, 4.0, 8.0});
  for (const double v : {1.0, 3.0, 3.0, 9.0}) m.observe(h, v);
  return m.to_json();
}

TEST_P(ParserFuzz, MetricsJsonNeverCrashes) {
  sim::Rng rng(GetParam() + 4000);
  const std::string base = metrics_document();
  ASSERT_EQ(obs::parse_metrics_json(base).to_json(), base);
  for (int i = 0; i < 400; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      const obs::MetricsRegistry parsed = obs::parse_metrics_json(doc);
      // Whatever parses renders, summarizes and parses back unchanged.
      const std::string json = parsed.to_json();
      EXPECT_EQ(obs::parse_metrics_json(json).to_json(), json) << doc;
      EXPECT_FALSE(parsed.summary().empty());
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, FaultPlanNeverCrashes) {
  sim::Rng rng(GetParam() + 5000);
  faults::RandomPlanConfig config;
  config.seed = GetParam();
  config.num_nodes = 8;
  config.num_devices = 2;
  config.num_hosts = 4;
  config.num_events = 12;
  const std::string base =
      faults::render_fault_plan(faults::FaultPlan::random(config));
  ASSERT_NE(base.find(" host="), std::string::npos) << base;
  ASSERT_EQ(faults::render_fault_plan(faults::parse_fault_plan(base)), base);
  for (int i = 0; i < 400; ++i) {
    const std::string doc = mutate(base, rng);
    faults::FaultPlan parsed;
    try {
      parsed = faults::parse_fault_plan(doc);
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kParse) << e.what();
      continue;
    }
    // Whatever parses renders to text that parses back to the same text.
    const std::string text = faults::render_fault_plan(parsed);
    EXPECT_EQ(faults::render_fault_plan(faults::parse_fault_plan(text)), text)
        << doc;
  }
}

/// A render_json() report with every section parse_report_json reads:
/// class rows, a critical path, span kinds, a fault audit and scheduler
/// rows.
std::string report_document() {
  model::RunReport r;
  r.command = "report --seed 42 --reps 4";
  r.has_model = true;
  r.model = model::parse_host_model(valid_model_doc());
  obs::TraceAnalysis& a = r.analysis;
  a.num_records = 9;
  a.first_ns = 0.0;
  a.last_ns = 2.5e6;
  a.critical_path_ns = 2.5e6;
  a.span_kinds = {{"fio.job", 1, 0, 2.5e6, 2.5e6, 8192, {{"ok", 1}}},
                  {"fio.stream", 2, 0, 3.0e6, 2.0e6, 8192, {{"ok", 2}}}};
  a.critical_path = {{1, "fio.job", "ok", "rdma_write", 0.0, 2.5e6, 0.5e6},
                     {2, "fio.stream", "ok", "nic", 0.0, 2.0e6, 2.0e6},
                     {5, "fio.retry", "retry", "", 1.0e6, -1.0, 0.0}};
  a.faults = {1, 1, 1, 2, {{"link-degrade degrade (id 4)", 2}}};
  obs::SchedLatencyProfile& sched = r.sched;
  for (auto* h : {&sched.queue_wait, &sched.dispatch, &sched.migration}) {
    h->bounds = {1.0, 10.0};
    h->counts.assign(3, 0);
    for (const double v : {0.5, 4.0, 20.0}) h->observe(v);
  }
  sched.queue_wait.name = "sched.queue_wait_ms";
  sched.dispatch.name = "sched.dispatch_ms";
  sched.migration.name = "sched.migration_ms";
  return model::render_json(r);
}

TEST_P(ParserFuzz, ReportJsonNeverCrashes) {
  sim::Rng rng(GetParam() + 6000);
  const std::string base = report_document();
  const model::ReportSummary summary = model::parse_report_json(base);
  ASSERT_EQ(summary.classes.size(), 4u);
  ASSERT_EQ(summary.critical_path.size(), 3u);
  ASSERT_EQ(summary.span_kinds.size(), 2u);
  ASSERT_EQ(summary.caused, 2);
  ASSERT_EQ(summary.sched_latency.size(), 3u);
  for (int i = 0; i < 400; ++i) {
    const std::string doc = mutate(base, rng);
    model::ReportSummary parsed;
    try {
      parsed = model::parse_report_json(doc);
    } catch (const std::invalid_argument&) {
      continue;
    }
    // Whatever parses diffs against itself.
    EXPECT_FALSE(model::diff_reports(parsed, parsed).empty()) << doc;
  }
}

TEST_P(ParserFuzz, HttpRequestLineRoutesOrIsNotFound) {
  sim::Rng rng(GetParam() + 7000);
  struct Request {
    const char* text;
    obs::Route route;
  };
  const Request requests[] = {
      {"GET /metrics HTTP/1.0\r\n\r\n", obs::Route::kMetrics},
      {"GET /report HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
       obs::Route::kReport},
      {"GET /healthz HTTP/1.0\r\n\r\n", obs::Route::kHealthz},
      {"GET / HTTP/1.0\r\n\r\n", obs::Route::kHealthz},
      {"GET /nope HTTP/1.0\r\n\r\n", obs::Route::kNotFound},
  };
  for (const Request& request : requests) {
    ASSERT_EQ(obs::route_request(request.text), request.route)
        << request.text;
    for (int i = 0; i < 100; ++i) {
      const std::string doc = mutate(request.text, rng);
      // A document only when the request target is still a known path.
      switch (obs::route_request(doc)) {
        case obs::Route::kMetrics:
          EXPECT_NE(doc.find(" /metrics "), std::string::npos) << doc;
          break;
        case obs::Route::kReport:
          EXPECT_NE(doc.find(" /report "), std::string::npos) << doc;
          break;
        case obs::Route::kHealthz:
          EXPECT_TRUE(doc.find(" /healthz ") != std::string::npos ||
                      doc.find(" / ") != std::string::npos)
              << doc;
          break;
        case obs::Route::kNotFound:
          break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u));

// --- The shared number grammar (docs/FORMATS.md "Numbers") -----------------

TEST(NumberGrammar, ParseNumberReadsOneWholeToken) {
  int i = 7;
  EXPECT_EQ(obs::text::parse_number("42", i), std::errc());
  EXPECT_EQ(i, 42);
  EXPECT_EQ(obs::text::parse_number("-2147483648", i), std::errc());
  EXPECT_EQ(i, std::numeric_limits<int>::min());
  for (const char* bad :
       {"", "-", "+5", "0x10", " 5", "5 ", "5x", "1.9", "1e3"}) {
    int v = 7;
    EXPECT_EQ(obs::text::parse_number(bad, v), std::errc::invalid_argument)
        << bad;
    EXPECT_EQ(v, 7) << bad;  // left alone on failure
  }
  EXPECT_EQ(obs::text::parse_number("2147483648", i),
            std::errc::result_out_of_range);

  std::uint64_t u = 0;
  EXPECT_EQ(obs::text::parse_number("18446744073709551615", u), std::errc());
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(obs::text::parse_number("18446744073709551616", u),
            std::errc::result_out_of_range);
  EXPECT_EQ(obs::text::parse_number("-1", u), std::errc::invalid_argument);

  double d = 0.0;
  for (const auto& [text, value] :
       {std::pair<const char*, double>{"1.5", 1.5}, {".5", 0.5},
        {"-2.5e3", -2500.0}, {"7", 7.0}, {"4e-320", 4e-320}}) {
    EXPECT_EQ(obs::text::parse_number(text, d), std::errc()) << text;
    EXPECT_EQ(d, value) << text;
  }
  for (const char* bad : {"inf", "-inf", "nan", "1e400", "1e-400"}) {
    EXPECT_EQ(obs::text::parse_number(bad, d),
              std::errc::result_out_of_range)
        << bad;
  }
  for (const char* bad : {"+1.5", "0x1p-1", "1.5s", " 1", "1,5", "1e400x"}) {
    EXPECT_EQ(obs::text::parse_number(bad, d), std::errc::invalid_argument)
        << bad;
  }
}

TEST(NumberGrammar, TransferTrace) {
  // std::stoi and std::stod stopped at the first bad byte, so "1x" and
  // "1.9" replayed on node 1 and a "0x10" GiB payload as 16 GiB; the
  // last field took the rest of the line, extra commas included.
  for (const char* line :
       {"0.0,tcp_send,1x,0.01", "0.0,tcp_send,1.9,0.01",
        "0.0,tcp_send,1,0x10", "+0.5,tcp_send,1,0.01",
        "0.0,tcp_send,+1,0.01", "0.0,tcp_send, 1,0.01",
        "0.0,tcp_send,1,0.01,9"}) {
    try {
      io::parse_trace(std::string("0.0,tcp_send,1,0.01\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kParse) << e.what();
      EXPECT_NE(std::string(e.what()).find("trace line 2: "),
                std::string::npos)
          << e.what();
    }
  }
  const auto entries = io::parse_trace("0.5,tcp_send,1,0.25\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].arrival, 0.5e9);
  EXPECT_EQ(entries[0].cpu_node, 1);
  EXPECT_EQ(entries[0].bytes, sim::kGiB / 4);
}

TEST(NumberGrammar, HostModel) {
  // operator>> read "+2" as 2 and the 40 of "40x"; "nodes 2147483647"
  // sized per-node tables from it and threw std::bad_alloc.
  struct Case {
    const char* from;
    const char* to;
    const char* line;
  };
  const std::string base = valid_model_doc();
  for (const Case& c :
       {Case{"nodes 2", "nodes +2", "line 2"},
        Case{"nodes 2", "nodes 2147483647", "line 2"},
        Case{"nodes 2", "nodes 1025", "line 2"},
        Case{"nodes 2", "nodes 2 spare", "line 2"},
        Case{"write 50.0 40.0", "write 50.0 40x", "line 3"},
        Case{"write 50.0 40.0", "write 50.0 0x28", "line 3"},
        Case{"write 50.0 40.0", "write 50.0 inf", "line 3"},
        Case{"classes 0 write 1", "classes 0 write 1.0", "line 4"},
        Case{"model 1 write", "model +1 write", "line 7"}}) {
    std::string doc = base;
    doc.replace(doc.find(c.from), std::string(c.from).size(), c.to);
    try {
      model::parse_host_model(doc);
      ADD_FAILURE() << "accepted: " << c.to;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kParse) << e.what();
      EXPECT_NE(std::string(e.what()).find(c.line), std::string::npos)
          << c.to << ": " << e.what();
    }
  }
  // The node bound is 1024 nodes (ids 0-1023): that count is accepted,
  // so the two-bandwidth model line after it is what fails.
  std::string doc = base;
  doc.replace(doc.find("nodes 2"), 7, "nodes 1024");
  try {
    model::parse_host_model(doc);
    ADD_FAILURE() << "accepted a 2-bandwidth line for 1024 nodes";
  } catch (const StatusError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: bandwidth count mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(NumberGrammar, FaultPlan) {
  // strtol and strtod took a leading '+' and hex floats, so the first
  // line crashed host 1 at 0.5 s.
  for (const char* line :
       {"host-crash host=+1 start=0x1p-1s dur=1s",
        "host-crash host=+1 start=0.5s dur=1s",
        "host-crash host=1 start=0x1p-1s dur=1s",
        "host-crash host=1.0 start=0.5s dur=1s",
        "host-recover host=1 start=0.5s dur=1s sev=+0.5",
        "link-flap src=0 dst=1 flaps=2x start=0.5 dur=1"}) {
    try {
      faults::parse_fault_plan(line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kParse) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
          << e.what();
    }
  }
  const faults::FaultPlan plan =
      faults::parse_fault_plan("host-crash host=1 start=500ms dur=1e0s\n");
  ASSERT_EQ(plan.events().size(), 1u);
  EXPECT_EQ(plan.events()[0].host, 1);
  EXPECT_EQ(plan.events()[0].start, 0.5e9);
  EXPECT_EQ(plan.events()[0].duration, 1e9);
}

TEST(NumberGrammar, JobFile) {
  // std::stol skipped a leading '+', so cpunodebind=+2 ran on node 2.
  for (const char* option :
       {"cpunodebind=+2", "cpunodebind=2.0", "numjobs=0x4", "iodepth=1e1",
        "size=+4g", "bs=0x10k"}) {
    try {
      io::parse_job_file(std::string("[a]\nioengine=rdma\nrw=read\n") +
                         option + "\n");
      ADD_FAILURE() << "accepted: " << option;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kParse) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
}

TEST(NumberGrammar, NumactlNodeLists) {
  // std::stoi stopped at the first bad byte: 2-3junk bound {2,3}.
  for (const char* spec : {"--membind=2-3junk", "--membind=+2",
                           "--interleave=0x1", "--preferred=1.0",
                           "--membind=2-", "--membind=0,"}) {
    EXPECT_THROW(nm::parse_numactl(spec), std::invalid_argument) << spec;
  }
  // Node ids take the job files' bound before a range is expanded:
  // --interleave=0-20000000 built a list of 20,000,001 nodes.
  EXPECT_THROW(nm::parse_numactl("--interleave=0-20000000"),
               std::out_of_range);
  EXPECT_THROW(nm::parse_numactl("--membind=1024"), std::out_of_range);
  EXPECT_EQ(nm::parse_numactl("--membind=1023").mem_nodes,
            std::vector<topo::NodeId>{1023});
}

TEST(NumberGrammar, CoreLists) {
  const topo::Topology topo = topo::dl585_g7();
  for (const char* list : {"0-3junk", "+1", "0x1", "1.0", "3,", "-1"}) {
    EXPECT_THROW(nm::nodes_of_core_list(topo, list), std::invalid_argument)
        << list;
  }
  EXPECT_THROW(nm::nodes_of_core_list(topo, "0-2000000000"),
               std::out_of_range);
  EXPECT_EQ(nm::nodes_of_core_list(topo, "0-3"),
            std::vector<topo::NodeId>{0});
}

// --- Saved JSON run reports (report --diff) --------------------------------

TEST(ReportJson, DeepNestingIsAParseError) {
  // One stack frame per container: 30,000 of them once overflowed it.
  std::string objects;
  for (int i = 0; i < 30000; ++i) objects += "{\"a\": ";
  for (const std::string& doc : {std::string(30000, '['), objects}) {
    try {
      model::parse_report_json(doc);
      FAIL() << "accepted " << doc.substr(0, 16);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 64"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ReportJson, NumbersFollowTheFromCharsGrammar) {
  // Reports and metrics read numbers through one rule: no '+', no hex.
  // strtod once let "records": +5 through.
  const std::string base = report_document();
  const std::string key = "\"records\": ";
  const std::size_t at = base.find(key) + key.size();
  const auto with = [&](const std::string& value) {
    return base.substr(0, at) + value + base.substr(base.find(',', at));
  };
  EXPECT_EQ(model::parse_report_json(with("5")).records, 5);
  for (const char* bad : {"+5", "0x10"}) {
    EXPECT_THROW(model::parse_report_json(with(bad)), std::invalid_argument)
        << bad;
  }
}

TEST(ReportJson, IntegerFieldsRejectValuesTheirTypeCannotHold) {
  const std::string base = report_document();
  // Where the value of `key`'s first (or last) occurrence starts.
  const auto value_of = [&](const std::string& key, bool last) {
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = last ? base.rfind(needle) : base.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    return at + needle.size();
  };
  // The document with the number at `at` replaced by `value`.
  const auto with = [&](std::size_t at, const std::string& value) {
    return base.substr(0, at) + value +
           base.substr(base.find_first_of(",]}", at));
  };
  struct Field {
    std::string key;
    std::size_t at;
  };
  std::vector<Field> ints;
  for (const char* key : {"records", "target", "count", "transitions",
                          "retries", "aborts", "caused"}) {
    ints.push_back({key, value_of(key, false)});
  }
  ints.push_back({"count", value_of("count", true)});  // a sched row
  ints.push_back({"classes", base.find("[[") + 2});     // a class member
  const Field id{"id", value_of("id", false)};          // 64-bit unsigned
  const auto expect_rejected = [&](const Field& f, const char* value) {
    try {
      model::parse_report_json(with(f.at, value));
      ADD_FAILURE() << f.key << " accepted " << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + f.key + "'"),
                std::string::npos)
          << f.key << " = " << value << ": " << e.what();
    }
  };
  for (const Field& f : ints) {
    for (const char* bad :
         {"inf", "-inf", "1e300", "2.5", "2147483648", "-2147483649"}) {
      expect_rejected(f, bad);
    }
  }
  for (const char* bad : {"inf", "-inf", "1e300", "2.5", "-1", "1e20"}) {
    expect_rejected(id, bad);
  }
  // The edges of each type still parse.
  EXPECT_EQ(model::parse_report_json(with(ints[0].at, "-2147483648")).records,
            -2147483647 - 1);
  EXPECT_EQ(model::parse_report_json(with(ints[0].at, "2147483647")).records,
            2147483647);
  EXPECT_EQ(
      model::parse_report_json(with(id.at, "1e19")).critical_path.front().id,
      10000000000000000000u);
}

// --- JSONL number grammar ---------------------------------------------------

void expect_trace_rejected(const std::string& number) {
  const std::string doc = "{\"id\":1,\"t\":0}\n{\"id\":2,\"t\":" + number +
                          ",\"name\":\"x\"}\n";
  try {
    obs::parse_trace_jsonl(doc);
    FAIL() << "expected rejection of " << number;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("trace line 2: ", 0), 0u)
        << e.what();
  }
}

TEST(ParseTraceJsonl, NumbersFollowTheFromCharsGrammar) {
  expect_trace_rejected("+5");     // no leading plus
  expect_trace_rejected("0x10");   // no hex: reads 0, then stops at x
  expect_trace_rejected("\r5");    // whitespace is space and tab only
  expect_trace_rejected("1e400");  // overflow
  expect_trace_rejected("-");
  const auto events = obs::parse_trace_jsonl(
      "{\"id\":1,\"t\":\t-2.5e3,\"wall_us\": 7}\n"
      "{\"id\":2,\"t\":inf,\"bytes\":1e3}\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t_sim, -2500.0);
  EXPECT_EQ(events[0].wall_us, 7.0);
  EXPECT_EQ(events[1].bytes, 1000);
}

TEST(ParseTraceJsonl, AcceptsTheSubnormalsItsSinkWrites) {
  obs::Event e;
  e.id = 1;
  e.t_sim = 3.999955468730732e-320;
  e.wall_us = 4.9406564584124654e-324;  // the smallest subnormal
  std::ostringstream text;
  obs::JsonlSink(text).write(e);
  EXPECT_NE(text.str().find("\"t\":3.999955468730732e-320"), std::string::npos)
      << text.str();
  const auto events = obs::parse_trace_jsonl(text.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(events[0].t_sim),
            std::bit_cast<std::uint64_t>(e.t_sim));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(events[0].wall_us),
            std::bit_cast<std::uint64_t>(e.wall_us));
}

TEST(ParseTraceJsonl, IntegerFieldsRejectValuesTheirTypeCannotHold) {
  for (const char* field : {"\"id\":-1", "\"span\":1e20", "\"node_a\":3e9",
                            "\"bytes\":1e19", "\"parent\":nan"}) {
    const std::string doc = "{\"id\":1," + std::string(field) + "}\n";
    try {
      obs::parse_trace_jsonl(doc);
      FAIL() << "expected rejection of " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "trace line 1: number out of range")
          << field;
    }
  }
}

TEST(ParseTraceJsonl, StringsDecodeAsTheJsonReaderDoes) {
  // The cursor once decoded only \n, \t, \", \\ and \uXXXX, and cast
  // each \u escape to one byte: "x\u0100y" loaded as x, NUL, y, and
  // "x\ry" failed with "unknown escape".
  for (const std::string body :
       {"x\\u0100y", "x\\ry", "a\\/b", "\\b\\f", "\\ud83d\\ude00",
        "\\u00e9\\u20ac", "\\\"q\\\\", "plain"}) {
    const std::string literal = "\"" + body + "\"";
    const auto events = obs::parse_trace_jsonl(
        "{\"id\":1,\"name\":" + literal + ",\"detail\":" + literal + "}\n");
    ASSERT_EQ(events.size(), 1u) << body;
    const std::string decoded = obs::json::parse(literal).str;
    EXPECT_EQ(events[0].name, decoded) << body;
    EXPECT_EQ(events[0].detail, decoded) << body;
  }
  EXPECT_EQ(obs::parse_trace_line("{\"id\":1,\"detail\":\"x\\u0100y\"}", 1)
                .detail,
            "x\xC4\x80y");
  // What the JSON reader rejects, the trace reader rejects, naming the line.
  for (const std::string body :
       {"\\x", "\\ud83d", "\\ude00", "\\ud83d\\u0041", "\\u12g4",
        "\\u12", "\\"}) {
    const std::string literal = "\"" + body + "\"";
    EXPECT_THROW(obs::json::parse(literal), std::invalid_argument) << body;
    try {
      obs::parse_trace_jsonl("{\"id\":1}\n{\"id\":2,\"detail\":" + literal +
                             "}\n");
      ADD_FAILURE() << "accepted " << body;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("trace line 2: ", 0), 0u)
          << e.what();
    }
  }
}

// --- deterministic job-file edge cases ------------------------------------

void expect_rejected(const std::string& doc, const std::string& needle) {
  try {
    io::parse_job_file(doc);
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(JobFileEdgeCases, DuplicateOptionInOneSectionRejected) {
  expect_rejected(
      "[a]\nioengine=rdma\nrw=read\ncpunodebind=2\nsize=400g\nsize=4g\n",
      "duplicate option 'size'");
}

TEST(JobFileEdgeCases, GlobalOverrideIsNotADuplicate) {
  const auto file = io::parse_job_file(
      "[global]\nioengine=rdma\nrw=read\nsize=400g\n"
      "[a]\ncpunodebind=2\nsize=4g\n");
  ASSERT_EQ(file.jobs.size(), 1u);
  EXPECT_EQ(file.jobs[0].job.bytes_per_stream, 4 * sim::kGiB);
}

TEST(JobFileEdgeCases, EmptySectionInheritsEverythingFromGlobal) {
  const auto file = io::parse_job_file(
      "[global]\nioengine=tcp\nrw=write\ncpunodebind=3\n[solo]\n");
  ASSERT_EQ(file.jobs.size(), 1u);
  EXPECT_EQ(file.jobs[0].name, "solo");
  EXPECT_EQ(file.jobs[0].job.cpu_node, 3);
}

TEST(JobFileEdgeCases, EmptyAndDuplicateSectionNamesRejected) {
  expect_rejected("[  ]\nioengine=rdma\n", "empty section name");
  expect_rejected(
      "[a]\nioengine=rdma\nrw=read\ncpunodebind=1\n"
      "[a]\ncpunodebind=2\n",
      "duplicate section [a]");
}

TEST(JobFileEdgeCases, IodepthRangeEnforced) {
  expect_rejected("[a]\niodepth=0\n", "'iodepth' out of range");
  expect_rejected("[a]\niodepth=5000\n", "'iodepth' out of range");
  expect_rejected("[a]\niodepth=16abc\n", "wants an integer");
}

TEST(JobFileEdgeCases, BlockSizeRangeEnforced) {
  expect_rejected("[a]\nbs=256\n", "'bs' out of range");  // < one sector
  expect_rejected("[a]\nbs=2g\n", "'bs' out of range");   // > 1 GiB
}

TEST(JobFileEdgeCases, SizeOverflowRejected) {
  expect_rejected("[a]\nsize=99999999999999999999\n", "overflows 64 bits");
  expect_rejected("[a]\nsize=99999999999g\n", "overflows 64 bits");
}

TEST(JobFileEdgeCases, LineNumbersPointAtTheOffendingLine) {
  try {
    io::parse_job_file("[a]\nioengine=rdma\niodepth=-1\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace numaio
