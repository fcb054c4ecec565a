// Robustness property tests for the text parsers (fio job files,
// host-model documents, transfer traces, JSONL trace captures, metrics
// JSON, fault plans): random single-character mutations of valid documents
// must either parse or throw std::invalid_argument — never crash, never
// hang, never corrupt state. The JSONL number grammar (std::from_chars)
// is pinned here too.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "io/jobfile.h"
#include "io/trace.h"
#include "model/characterize.h"
#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simcore/rng.h"
#include "simcore/status.h"

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
    } catch (const std::out_of_range&) {
      // std::stoi overflow on huge duplicated digits — acceptable
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
    } catch (const std::out_of_range&) {
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
    } catch (const std::out_of_range&) {
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

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u));

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
