// fio-format job file parsing (§III-B2 runs everything through fio).
//
// A subset of fio's INI dialect large enough to express every experiment
// in the paper:
//
//   [global]                ; defaults inherited by all jobs
//   ioengine=rdma           ; net | rdma | libaio
//   rw=read                 ; read | write
//   bs=128k                 ; block size (k/m/g binary suffixes)
//   iodepth=16
//   size=400g               ; bytes per stream
//   numjobs=4               ; parallel streams
//
//   [reader-on-node2]
//   cpunodebind=2           ; NUMA binding of this job's processes
//
// Engine resolution: (ioengine, rw) maps to a device personality —
//   net/write -> tcp_send, net/read -> tcp_recv,
//   rdma/write -> rdma_write, rdma/read -> rdma_read,
//   libaio/write -> ssd_write, libaio/read -> ssd_read —
// and resolve_jobs() attaches the right devices from a DeviceSet.
// Comments (# or ;), blank lines and surrounding whitespace are accepted;
// unknown keys or malformed values throw std::invalid_argument with the
// offending line number.
#pragma once

#include <string>
#include <vector>

#include "io/fio.h"

namespace numaio::io {

/// One parsed job section: the job name plus a FioJob whose `devices` are
/// not yet resolved (engine name is set).
struct JobFileEntry {
  std::string name;
  FioJob job;
};

struct JobFile {
  std::vector<JobFileEntry> jobs;
};

/// Parses the INI text. Throws StatusError (StatusCode::kParse, which
/// is-a std::invalid_argument) with a line number on malformed input.
JobFile parse_job_file(const std::string& text);

/// Reads and parses a job file from disk. Throws StatusError:
/// StatusCode::kNoFile when the file cannot be read, StatusCode::kParse
/// when its contents are malformed.
JobFile load_job_file(const std::string& path);

/// Parses a fio-style size literal: plain bytes or binary k/m/g suffix
/// (case-insensitive). Throws std::invalid_argument on garbage.
sim::Bytes parse_size(const std::string& text);

/// Fills in each job's device list from the set (DeviceSet::for_engine);
/// throws std::invalid_argument if a job needs a device kind the set does
/// not provide.
std::vector<FioJob> resolve_jobs(const JobFile& file, const DeviceSet& set);

}  // namespace numaio::io
