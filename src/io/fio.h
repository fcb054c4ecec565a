// fio-style I/O benchmark runner (§III-B2).
//
// A FioJob mirrors the knobs of the paper's fio configuration: an engine
// (TCP / RDMA / libaio-SSD personality), a NUMA binding for the worker
// processes, a stream count, bytes per stream (400 GB in the paper, for
// stable averages), block size (128 KB) and I/O depth (16). Buffers are
// allocated in the workers' local memory, exactly as the paper configures
// ("all test cases will allocate buffers in their local memory space"),
// so the *binding node* determines the fabric path to the device.
//
// Streams of a job round-robin across the job's devices (the paper drives
// two SSD cards simultaneously). run_concurrent() executes several jobs at
// once for multi-user scenarios (the Eq. 1 validation).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "faults/injector.h"
#include "io/device.h"
#include "nm/host.h"
#include "obs/obs.h"
#include "simcore/retry.h"

namespace numaio::io {

/// How the job submits I/O. The paper observed (§IV-B3) that "regular
/// kernel-buffered read/write operations perform much worse than
/// kernel-bypassed ones, and asynchronous I/O operations outperform
/// synchronous ones" — so its SSD runs use libaio with kernel bypass,
/// which is kAsyncDirect here.
enum class IoMode {
  kAsyncDirect,    ///< libaio + O_DIRECT (the paper's configuration).
  kAsyncBuffered,  ///< async through the page cache (extra kernel copy).
  kSyncDirect,     ///< synchronous O_DIRECT: one request in flight.
  kSyncBuffered,   ///< synchronous buffered: both penalties.
};

/// The devices a run can draw on.
struct DeviceSet {
  const PcieDevice* nic = nullptr;
  std::vector<const PcieDevice*> ssds;

  /// The devices that serve `engine`: both SSD cards for an SSD engine
  /// (is_ssd_engine), the NIC otherwise. Throws std::invalid_argument
  /// when the set has none.
  std::vector<const PcieDevice*> for_engine(const std::string& engine) const;
};

struct FioJob {
  std::vector<const PcieDevice*> devices;
  std::string engine;
  NodeId cpu_node = 0;
  /// Placement policy for the worker buffers. The paper's default is the
  /// kernel's local-preferred policy ("all test cases will allocate
  /// buffers in their local memory space"); interleaving spreads each
  /// buffer's pages — and hence the DMA traffic — across nodes, averaging
  /// the per-class bandwidths (a mitigation knob §V-B's scheduler can
  /// exploit when rebinding processes is not possible).
  nm::Policy mem_policy{};
  int num_streams = 1;
  sim::Bytes bytes_per_stream = 400 * sim::kGiB;
  sim::Bytes block_size = 128 * sim::kKiB;
  int iodepth = 16;
  IoMode io_mode = IoMode::kAsyncDirect;
  /// For network engines: NUMA binding of the process on the *peer* host
  /// (an identical machine). -1 means the peer side is optimally placed.
  /// A bad peer binding caps the transfer just like a bad local one —
  /// up to the ~30% TCP loss reported for remote-core placement at either
  /// end ([3], cited in §I).
  int peer_node = -1;
  std::uint64_t seed = 20130407;
  /// Degraded-mode policy: per-stream attempt timeout, bounded retries
  /// with exponential backoff + jitter. The default timeout of 0 disables
  /// timeouts, which (absent faults) reproduces the fault-free behaviour
  /// exactly. An aborted attempt retries only the *remaining* bytes, so
  /// partial progress is never thrown away.
  sim::RetryPolicy retry{};
};

struct FioStreamStats {
  NodeId mem_node = 0;             ///< Where the stream's buffer landed.
  const PcieDevice* device = nullptr;
  sim::Gbps avg_rate = 0.0;        ///< Bytes / lifetime of the stream.
  /// Time-weighted coefficient of variation of the stream's rate. The
  /// paper reports single long-transfer averages because "the bandwidth
  /// performance is stable over the whole data transfer process" (§V-B);
  /// this field lets callers check that stability claim.
  double rate_cv = 0.0;
  /// Bytes actually moved (== the job's bytes_per_stream unless the stream
  /// exhausted its retries and gave up part-way).
  sim::Bytes bytes_moved = 0;
  /// Degraded-mode accounting: success/retries/abort and a confidence
  /// score discounted for retries, rate instability and fault overlap.
  sim::MeasurementOutcome outcome{};
};

struct FioResult {
  /// Average aggregate bandwidth: total bytes over the job's makespan —
  /// the quantity the paper reports.
  sim::Gbps aggregate = 0.0;
  sim::Ns duration = 0.0;
  std::vector<FioStreamStats> streams;
  /// Degraded-mode rollup over the job's streams.
  int total_retries = 0;
  int aborted_streams = 0;
  /// True when any stream aborted, retried, or reported low confidence —
  /// the caller should treat `aggregate` as a degraded-mode partial result.
  bool degraded = false;
};

/// Total bytes over the overall makespan of several concurrently-run jobs
/// (all jobs of run_concurrent start together). This is the "overall
/// bandwidth" of the paper's Eq. 1 validation.
sim::Gbps combined_aggregate(const std::vector<FioResult>& results);

/// Low-level stream construction, shared by FioRunner and the online
/// scheduler (model/online.h): the solver footprint and rate limits of one
/// stream of `engine` issued from cpu_node against a buffer on mem_node.
struct StreamOptions {
  int iodepth = 16;
  double rho_factor = 1.0;        ///< Extra engine-efficiency multiplier.
  double stream_cap_factor = 1.0; ///< Extra per-stream cap multiplier.
  double extra_cpu_app_per_gbps = 0.0;
  bool synchronous = false;       ///< Queue devices: one request in flight.
};

struct StreamShape {
  std::vector<sim::Usage> usages;  ///< Includes the engine occupancy term.
  sim::Gbps rate_cap = sim::kUnlimited;
  double tau = 0.0;                ///< Engine seconds-per-bit weight used.
};

/// Config-aggregate description of one stream (DESIGN.md §11 "Config
/// aggregates", same shape as mem::StreamConfig /
/// faults::RandomPlanConfig), the shape_stream argument. When `placements`
/// is empty the buffer lives whole on `mem_node`; otherwise it spans the
/// listed (node, bytes) shares (interleaved policy) and DMA traffic
/// splits across the per-node paths in proportion to the page shares,
/// with the engine occupancy / window limits composing harmonically over
/// them.
struct StreamSpec {
  const PcieDevice* device = nullptr;
  std::string engine;
  NodeId cpu_node = 0;
  NodeId mem_node = 0;
  std::vector<std::pair<NodeId, sim::Bytes>> placements;
  StreamOptions options{};
};

StreamShape shape_stream(fabric::Machine& machine, const StreamSpec& spec);

/// A job with an absolute start time, for open-loop arrival workloads.
struct TimedJob {
  FioJob job;
  sim::Ns start = 0.0;
};

class FioRunner {
 public:
  explicit FioRunner(nm::Host& host) : host_(host) {}

  /// Attaches a fault injector: its remaining transitions are armed on the
  /// runner's fluid timeline, device stalls abort the in-flight transfers
  /// of streams on the stalled device (which then follow the job's retry
  /// policy), and stream confidences are discounted for fault overlap.
  /// Devices the jobs use are matched to the injector's registered devices
  /// by name. Pass nullptr to detach. The injector must outlive the runs.
  void set_fault_injector(faults::FaultInjector* injector) {
    faults_ = injector;
  }

  /// Attaches an observability context (nullptr detaches). Runs then open
  /// a `fio.job` span per job and a `fio.stream` span per stream, emit
  /// `fio.attempt` / `fio.retry` / `fio.abort` instant events (aborts and
  /// fault-triggered retries cite the causing `fault.transition` event),
  /// and maintain the fio.* counters. The context must outlive the runs.
  void set_observer(obs::Context* obs);

  /// Runs one job alone on the host.
  FioResult run(const FioJob& job);

  /// Runs several jobs concurrently (multi-user scenario); results are
  /// indexed like `jobs`.
  std::vector<FioResult> run_concurrent(const std::vector<FioJob>& jobs);

  /// Runs jobs that start at the given absolute times (an open-loop
  /// arrival process); results are indexed like `jobs`. All three run
  /// forms check every job before any buffer is allocated: they throw
  /// StatusError(kUsage) when a job's cpu_node, its peer_node when set or
  /// a node of its mem_policy is not a node of the host;
  /// std::invalid_argument for a job with no device, no stream or fewer
  /// SSD streams than cards; and std::out_of_range for an engine one of
  /// its devices lacks. A std::bad_alloc from the buffers frees those
  /// already taken. A peer-bound job adds a peer cap resource to the
  /// solver once per job slot; later runs reuse it.
  std::vector<FioResult> run_timed(const std::vector<TimedJob>& jobs);

 private:
  nm::Host& host_;
  faults::FaultInjector* faults_ = nullptr;
  /// Peer-cap solver resources by job slot, reused by every later run.
  std::map<std::size_t, sim::ResourceId> peer_resources_;

  obs::Context* obs_ = nullptr;
  obs::MetricsRegistry::Id m_streams_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_attempts_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_retries_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_aborted_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_degraded_jobs_ = obs::MetricsRegistry::kNone;
};

}  // namespace numaio::io
