#include "io/trace.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "io/testbed.h"
#include "simcore/status.h"

namespace numaio::io {
namespace {

constexpr char kTrace[] = R"(# a data-mover request log
0.0,rdma_write,7,32
1.25,tcp_recv,2,8
2.5,ssd_read,0,16   # replay against the flash cards
)";

TEST(Trace, ParsesEntriesAndComments) {
  const auto entries = parse_trace(kTrace);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_DOUBLE_EQ(entries[0].arrival, 0.0);
  EXPECT_EQ(entries[0].engine, "rdma_write");
  EXPECT_EQ(entries[0].cpu_node, 7);
  EXPECT_EQ(entries[0].bytes, 32 * sim::kGiB);
  EXPECT_DOUBLE_EQ(entries[1].arrival, 1.25e9);
  EXPECT_EQ(entries[2].engine, "ssd_read");
}

TEST(Trace, FormatRoundTrips) {
  const auto entries = parse_trace(kTrace);
  const auto again = parse_trace(format_trace(entries));
  ASSERT_EQ(again.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_NEAR(again[i].arrival, entries[i].arrival, 1e3);
    EXPECT_EQ(again[i].engine, entries[i].engine);
    EXPECT_EQ(again[i].cpu_node, entries[i].cpu_node);
    EXPECT_NEAR(static_cast<double>(again[i].bytes),
                static_cast<double>(entries[i].bytes), 1e4);
  }
}

TEST(Trace, RejectsMalformedInput) {
  EXPECT_THROW(parse_trace(""), std::invalid_argument);
  EXPECT_THROW(parse_trace("0.0,rdma_write,7\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace("abc,rdma_write,7,1\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace("0.0,rdma_write,7,-2\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace("-1.0,rdma_write,7,2\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace("0.5,bogus,7,8\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace("0.0,,7,8\n"), std::invalid_argument);
}

// Each line once crashed, hung or faked success in `replay`: undefined
// float-to-Bytes casts, a zero-byte payload, a NaN arrival, an infinite
// arrival, and std::out_of_range escaping without a line number.
TEST(Trace, RejectsNonFiniteAndOutOfRangeNumbers) {
  for (const char* line :
       {"0.0,rdma_write,7,inf", "0.0,rdma_write,7,1e300",
        "0.0,rdma_write,7,1e-300", "nan,rdma_write,7,1",
        "inf,rdma_write,7,1", "0.0,rdma_write,99999999999999999999,1",
        "0.0,rdma_write,7,1e400"}) {
    try {
      parse_trace(std::string("0.0,rdma_write,7,1\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("trace line 2"),
                std::string::npos)
          << line << ": " << e.what();
    }
  }
}

TEST(Trace, RejectsUnsortedArrivals) {
  EXPECT_THROW(parse_trace("2.0,rdma_write,7,1\n1.0,rdma_write,7,1\n"),
               std::invalid_argument);
}

TEST(Trace, ErrorsCarryLineNumbers) {
  try {
    parse_trace("0.0,rdma_write,7,1\nbroken\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // An unknown engine once parsed and failed only when the jobs were
  // built, with no line number.
  for (const char* line : {"0.5,bogus,7,8", "0.0,,7,8"}) {
    try {
      parse_trace(std::string("0.0,rdma_write,7,1\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kParse) << e.what();
      EXPECT_NE(std::string(e.what()).find("trace line 2: unknown engine"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Trace, JobsPickTheRightDevices) {
  Testbed tb = Testbed::dl585();
  const auto entries = parse_trace(kTrace);
  const auto jobs = trace_to_jobs(entries, tb.devices());
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].job.devices, std::vector<const PcieDevice*>{&tb.nic()});
  EXPECT_EQ(jobs[2].job.devices.size(), 1u);
  EXPECT_EQ(jobs[2].job.devices[0]->name().rfind("nytro", 0), 0u);
  EXPECT_DOUBLE_EQ(jobs[1].start, 1.25e9);
  EXPECT_EQ(jobs[1].job.bytes_per_stream, 8 * sim::kGiB);
}

TEST(Trace, MissingDevicesThrow) {
  const auto entries = parse_trace("0.0,ssd_read,0,1\n");
  EXPECT_THROW(trace_to_jobs(entries, DeviceSet{}), std::invalid_argument);
}

TEST(Trace, ReplayRunsDeterministically) {
  Testbed tb = Testbed::dl585();
  const auto entries = parse_trace(kTrace);
  const auto jobs = trace_to_jobs(entries, tb.devices());
  FioRunner fio(tb.host());
  const auto r1 = fio.run_timed(jobs);
  const auto r2 = fio.run_timed(jobs);
  ASSERT_EQ(r1.size(), 3u);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_GT(r1[i].aggregate, 0.0);
    EXPECT_DOUBLE_EQ(r1[i].aggregate, r2[i].aggregate);
  }
}

}  // namespace
}  // namespace numaio::io
