#include "io/jobfile.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "io/testbed.h"

namespace numaio::io {
namespace {

constexpr char kPaperJobFile[] = R"(
; Table III network test parameters
[global]
ioengine=rdma
rw=read
bs=128k
iodepth=16
size=400g
numjobs=4

[reader-node2]
cpunodebind=2

[reader-node0]
cpunodebind=0
numjobs=2
)";

TEST(JobFile, ParsesGlobalDefaultsAndOverrides) {
  const JobFile file = parse_job_file(kPaperJobFile);
  ASSERT_EQ(file.jobs.size(), 2u);

  const auto& a = file.jobs[0];
  EXPECT_EQ(a.name, "reader-node2");
  EXPECT_EQ(a.job.engine, kRdmaRead);
  EXPECT_EQ(a.job.cpu_node, 2);
  EXPECT_EQ(a.job.num_streams, 4);
  EXPECT_EQ(a.job.block_size, 128 * sim::kKiB);
  EXPECT_EQ(a.job.iodepth, 16);
  EXPECT_EQ(a.job.bytes_per_stream, 400 * sim::kGiB);

  const auto& b = file.jobs[1];
  EXPECT_EQ(b.job.cpu_node, 0);
  EXPECT_EQ(b.job.num_streams, 2);  // override wins
}

TEST(JobFile, EngineMapping) {
  struct Case {
    const char* ioengine;
    const char* rw;
    const char* expect;
  };
  const Case cases[] = {
      {"net", "write", kTcpSend},   {"net", "read", kTcpRecv},
      {"tcp", "write", kTcpSend},   {"rdma", "write", kRdmaWrite},
      {"rdma", "read", kRdmaRead},  {"libaio", "write", kSsdWrite},
      {"libaio", "read", kSsdRead},
  };
  for (const Case& c : cases) {
    const std::string text = std::string("[j]\nioengine=") + c.ioengine +
                             "\nrw=" + c.rw + "\ncpunodebind=1\n";
    const JobFile file = parse_job_file(text);
    EXPECT_EQ(file.jobs[0].job.engine, c.expect) << c.ioengine;
  }
}

TEST(JobFile, CommentsAndWhitespaceTolerated) {
  const JobFile file = parse_job_file(
      "  [ j1 ]  # trailing comment\n"
      "ioengine = rdma ; another comment\n"
      "  rw=write\n"
      "\n"
      "cpunodebind=3\n");
  ASSERT_EQ(file.jobs.size(), 1u);
  EXPECT_EQ(file.jobs[0].name, "j1");
  EXPECT_EQ(file.jobs[0].job.engine, kRdmaWrite);
}

TEST(JobFile, ParseSizeSuffixes) {
  EXPECT_EQ(parse_size("128k"), 128 * sim::kKiB);
  EXPECT_EQ(parse_size("4M"), 4 * sim::kMiB);
  EXPECT_EQ(parse_size("400g"), 400 * sim::kGiB);
  EXPECT_EQ(parse_size("12345"), 12345u);
  EXPECT_THROW(parse_size("12q"), std::invalid_argument);
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("k"), std::invalid_argument);
}

TEST(JobFile, ErrorsCarryLineNumbers) {
  try {
    parse_job_file("[j]\nioengine=rdma\nbogus=1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(JobFile, RejectsOptionBeforeSection) {
  EXPECT_THROW(parse_job_file("ioengine=rdma\n"), std::invalid_argument);
}

TEST(JobFile, RejectsMalformedHeader) {
  EXPECT_THROW(parse_job_file("[oops\nioengine=rdma\n"),
               std::invalid_argument);
}

TEST(JobFile, RejectsMissingEngineOrBinding) {
  EXPECT_THROW(parse_job_file("[j]\ncpunodebind=1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_job_file("[j]\nioengine=rdma\nrw=read\n"),
               std::invalid_argument);
}

TEST(JobFile, RejectsBadRwAndEngine) {
  EXPECT_THROW(
      parse_job_file("[j]\nioengine=rdma\nrw=randrw\ncpunodebind=1\n"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_job_file("[j]\nioengine=nvme\nrw=read\ncpunodebind=1\n"),
      std::invalid_argument);
}

TEST(JobFile, RejectsEmptyFile) {
  EXPECT_THROW(parse_job_file(""), std::invalid_argument);
  EXPECT_THROW(parse_job_file("[global]\nioengine=rdma\n"),
               std::invalid_argument);
}

TEST(JobFile, ResolveAttachesDevices) {
  Testbed tb = Testbed::dl585();
  DeviceSet set;
  set.nic = &tb.nic();
  set.ssds = tb.ssds();

  const JobFile file = parse_job_file(
      "[net]\nioengine=rdma\nrw=read\ncpunodebind=2\n"
      "[disk]\nioengine=libaio\nrw=write\ncpunodebind=7\nnumjobs=2\n");
  const auto jobs = resolve_jobs(file, set);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].devices, std::vector<const PcieDevice*>{&tb.nic()});
  EXPECT_EQ(jobs[1].devices, tb.ssds());
  // The one rule behind it: both cards for an SSD engine, else the NIC.
  EXPECT_EQ(tb.devices().for_engine(kSsdRead), tb.ssds());
  EXPECT_EQ(tb.devices().for_engine(kTcpSend),
            std::vector<const PcieDevice*>{&tb.nic()});
  EXPECT_THROW((DeviceSet{&tb.nic(), {}}.for_engine(kSsdWrite)),
               std::invalid_argument);
  EXPECT_THROW((DeviceSet{nullptr, tb.ssds()}.for_engine(kRdmaRead)),
               std::invalid_argument);
}

TEST(JobFile, ResolveFailsWithoutNeededDevice) {
  const JobFile file = parse_job_file(
      "[disk]\nioengine=libaio\nrw=write\ncpunodebind=7\nnumjobs=2\n");
  DeviceSet empty;
  EXPECT_THROW(resolve_jobs(file, empty), std::invalid_argument);
}

TEST(JobFile, EndToEndThroughRunner) {
  // A job file drives the same measurement as hand-built jobs.
  Testbed tb = Testbed::dl585();
  DeviceSet set;
  set.nic = &tb.nic();
  const JobFile file = parse_job_file(
      "[global]\nioengine=rdma\nrw=read\nnumjobs=4\n"
      "[probe]\ncpunodebind=0\n");
  FioRunner fio(tb.host());
  const auto jobs = resolve_jobs(file, set);
  EXPECT_NEAR(fio.run(jobs[0]).aggregate, 18.3, 0.2);
}

}  // namespace
}  // namespace numaio::io
