// Deterministic fault schedules against a simulated NUMA host.
//
// The paper characterizes a healthy, static machine; its §VI future work
// (online placement/migration, directional-anomaly diagnosis) only matters
// when the machine changes under the workload. A FaultPlan is the ground
// truth of such change: a seeded, validated list of timed fault events —
// directed-link degradation and flapping, memory-controller throttling,
// PCIe device stalls, IRQ storms, and measurement-noise amplification.
// The plan itself is pure data; faults::FaultInjector turns it into
// capacity transitions on a fabric::Machine so all degradation flows
// through the existing FlowSolver contention math.
//
// Determinism guarantee: FaultPlan::random(config) is a pure function
// of its arguments, and the injector's applied-transition trace renders to
// byte-identical text across runs with the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/units.h"
#include "topo/topology.h"

namespace numaio::faults {

using topo::NodeId;

enum class FaultKind {
  kLinkDegrade,   ///< Directed fabric pair loses (severity) of its capacity.
  kLinkFlap,      ///< The pair cycles dead/alive `flaps` times in the window.
  kMcThrottle,    ///< A node's memory controller is throttled.
  kDeviceStall,   ///< A registered PCIe device goes dark; in-flight I/O aborts.
  kIrqStorm,      ///< Interrupt flood burns a node's CPU budget.
  kMeasureNoise,  ///< Repetition noise turns heavy-tailed (amplified).
  // Host-level kinds, consumed by the fleet serving core (src/fleet):
  // `host` indexes a fleet host, a different id space from NUMA nodes.
  kHostCrash,     ///< The whole host dies; in-flight requests are lost.
  kHostHang,      ///< The host freezes: no progress, nothing is lost.
  kHostRecover,   ///< Post-crash warm-up: capacity reduced by `severity`.
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDegrade;
  sim::Ns start = 0.0;
  sim::Ns duration = 0.0;
  /// Directed pair for link faults (src -> dst).
  NodeId src = -1;
  NodeId dst = -1;
  /// Node for kMcThrottle / kIrqStorm.
  NodeId node = -1;
  /// Index of a device registered with the injector, for kDeviceStall.
  int device = -1;
  /// Fleet host index for the kHost* kinds.
  int host = -1;
  /// Fraction of capacity removed while active (link/MC/IRQ faults and
  /// kHostRecover), or the noise multiplier minus one for kMeasureNoise.
  /// In [0, 1] for capacity faults; >= 0 for noise.
  double severity = 0.5;
  /// kLinkFlap: number of dead windows inside [start, start+duration].
  int flaps = 1;
};

/// Standard config aggregate (DESIGN.md §11 "Config aggregates"), same
/// shape as mem::StreamConfig / io::StreamSpec / sim::SolveOptions.
struct RandomPlanConfig {
  /// Seed and host shape of the plan.
  std::uint64_t seed = 0;
  int num_nodes = 0;
  /// Device-stall events are only drawn when num_devices > 0.
  int num_devices = 0;
  /// Fleet width: host-level events (crash/hang/recover) are only drawn
  /// when num_hosts > 0. Zero keeps plans byte-identical to pre-fleet
  /// seeds.
  int num_hosts = 0;
  int num_events = 4;
  sim::Ns horizon = 30.0e9;         ///< Events start within [0, horizon).
  sim::Ns min_duration = 0.5e9;
  sim::Ns max_duration = 6.0e9;
  double min_severity = 0.3;
  double max_severity = 0.9;
  int max_flaps = 4;
  /// Noise events amplify rep noise by up to this factor.
  double max_noise_amplification = 8.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  void add(FaultEvent event) { events_.push_back(event); }
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Throws std::invalid_argument when any event is malformed for a host
  /// with `num_nodes` nodes and `num_devices` registered devices (bad
  /// node ids, negative windows, out-of-range severity, ...). `num_hosts`
  /// bounds the host index of the kHost* kinds; pass -1 to check only
  /// that host indices are non-negative (a consumer that registers hosts
  /// later, like the injector does for devices).
  void validate(int num_nodes, int num_devices, int num_hosts = -1) const;

  /// A seeded random plan: identical configs yield an identical plan. The
  /// config aggregate carries the seed and host shape (seed / num_nodes /
  /// num_devices) alongside the event-distribution knobs.
  static FaultPlan random(const RandomPlanConfig& config);

  /// Deterministic one-line-per-event rendering (for logs and tests).
  std::string to_string() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Parses the fault-plan file format (docs/FORMATS.md §6): one event per
/// line, `<kind> key=value ...`, `#` comments and blank lines skipped.
/// Durations accept s/ms/us/ns suffixes (bare numbers are seconds).
/// Throws numaio::StatusError(kParse) with the offending line number on a
/// duplicate key, an unknown kind or key, a missing required key, an
/// unparseable value, an integer outside int's range or a time that is
/// not finite in nanoseconds. Otherwise syntax only — range errors (zero
/// durations, bad ids) are FaultPlan::validate's job.
FaultPlan parse_fault_plan(const std::string& text);

/// Renders a plan in the file format above; `parse_fault_plan(
/// render_fault_plan(plan))` round-trips every field the kind uses.
std::string render_fault_plan(const FaultPlan& plan);

}  // namespace numaio::faults
