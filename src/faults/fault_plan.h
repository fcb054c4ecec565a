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

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "simcore/units.h"
#include "topo/topology.h"

namespace numaio::faults {

using topo::NodeId;

/// The fault kinds. Each is described by its row in the kind table
/// (kind_info): its name, its target and what its severity means.
enum class FaultKind {
  kLinkDegrade,
  kLinkFlap,
  kMcThrottle,
  kDeviceStall,
  kIrqStorm,
  kMeasureNoise,
  kHostCrash,
  kHostHang,
  kHostRecover,
};

/// What an event acts on, and so which FaultEvent ids it uses.
enum class FaultTarget {
  kLink,        ///< A directed fabric pair (`src`, `dst`).
  kNodeMemory,  ///< A NUMA node's memory controller (`node`).
  kNodeCpu,     ///< A NUMA node's cores (`node`).
  kDevice,      ///< A device registered with the injector (`device`).
  kHost,        ///< A fleet host (`host`), consumed by src/fleet; host
                ///< ids are a different id space from NUMA nodes.
  kNone,        ///< Nothing: the event acts on measurement itself.
};

/// What `severity` means while an event is active.
enum class FaultSeverity {
  kCapacity,  ///< Capacity scale 1 - severity; severity in [0, 1].
  kNoise,     ///< Noise amplification 1 + severity; severity finite, >= 0.
  kNone,      ///< Unused: the target is out entirely (scale 0).
};

/// One row of the kind table.
struct FaultKindInfo {
  FaultKind kind;
  const char* name;  ///< Plan-file and trace spelling.
  FaultTarget target;
  FaultSeverity severity;
  /// The window holds `flaps` dead slices instead of one active span.
  bool flaps;
};

/// The kind table, in FaultKind order: the one place a fault kind is
/// described. Plan checks, random plans, plan files and the injector
/// decide by its rows.
inline constexpr FaultKindInfo kFaultKinds[] = {
    // The pair loses `severity` of its capacity.
    {FaultKind::kLinkDegrade, "link-degrade", FaultTarget::kLink,
     FaultSeverity::kCapacity, false},
    // The pair cycles dead/alive `flaps` times in the window.
    {FaultKind::kLinkFlap, "link-flap", FaultTarget::kLink,
     FaultSeverity::kCapacity, true},
    // The memory controller is throttled.
    {FaultKind::kMcThrottle, "mc-throttle", FaultTarget::kNodeMemory,
     FaultSeverity::kCapacity, false},
    // The device goes dark; in-flight I/O aborts.
    {FaultKind::kDeviceStall, "device-stall", FaultTarget::kDevice,
     FaultSeverity::kNone, false},
    // An interrupt flood burns the node's CPU budget.
    {FaultKind::kIrqStorm, "irq-storm", FaultTarget::kNodeCpu,
     FaultSeverity::kCapacity, false},
    // Repetition noise turns heavy-tailed.
    {FaultKind::kMeasureNoise, "measure-noise", FaultTarget::kNone,
     FaultSeverity::kNoise, false},
    // The whole host dies; in-flight requests are lost.
    {FaultKind::kHostCrash, "host-crash", FaultTarget::kHost,
     FaultSeverity::kNone, false},
    // The host freezes: no progress, nothing is lost.
    {FaultKind::kHostHang, "host-hang", FaultTarget::kHost,
     FaultSeverity::kNone, false},
    // Post-crash warm-up at reduced capacity.
    {FaultKind::kHostRecover, "host-recover", FaultTarget::kHost,
     FaultSeverity::kCapacity, false},
};

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kFaultKinds); ++i) {
        if (static_cast<std::size_t>(kFaultKinds[i].kind) != i) return false;
      }
      return true;
    }(),
    "kFaultKinds rows follow FaultKind order");

/// The row of `kind`, which must be a FaultKind enumerator
/// (FaultPlan::validate rejects any other value).
constexpr const FaultKindInfo& kind_info(FaultKind kind) {
  return kFaultKinds[static_cast<std::size_t>(kind)];
}

inline const char* to_string(FaultKind kind) { return kind_info(kind).name; }

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDegrade;
  sim::Ns start = 0.0;
  sim::Ns duration = 0.0;
  /// The target's ids (FaultTarget says which the kind uses).
  NodeId src = -1;
  NodeId dst = -1;
  NodeId node = -1;
  int device = -1;
  int host = -1;
  /// Meaning set by the kind's FaultSeverity.
  double severity = 0.5;
  /// Number of dead windows inside [start, start+duration], for the
  /// kinds that flap.
  int flaps = 1;
};

/// Standard config aggregate (DESIGN.md §11 "Config aggregates"), same
/// shape as mem::StreamConfig / io::StreamSpec.
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
  /// node ids, negative windows, a severity out of its kind's range or
  /// not finite, ...). `num_hosts`
  /// bounds the host index of the kHost* kinds; pass -1 to check only
  /// that host indices are non-negative (a consumer that registers hosts
  /// later, like the injector does for devices).
  void validate(int num_nodes, int num_devices, int num_hosts = -1) const;

  /// A seeded random plan: identical configs yield an identical plan. The
  /// config aggregate carries the seed and host shape (seed / num_nodes /
  /// num_devices) alongside the event-distribution knobs. Throws
  /// std::invalid_argument, before any draw, when num_nodes < 2 or
  /// max_flaps < 1.
  static FaultPlan random(const RandomPlanConfig& config);

 private:
  std::vector<FaultEvent> events_;
};

/// Parses the fault-plan file format (docs/FORMATS.md §6): one event per
/// line, `<kind> key=value ...`, `#` comments and blank lines skipped.
/// Durations accept s/ms/us/ns suffixes (bare numbers are seconds).
/// Throws numaio::StatusError(kParse) with the offending line number on a
/// duplicate key, an unknown kind, a key the kind does not take, a
/// missing required key, a value outside the number grammar (docs/FORMATS.md "Numbers"), an
/// integer outside int's range or a time that is not finite in
/// nanoseconds. Otherwise syntax only — range errors (zero
/// durations, bad ids) are FaultPlan::validate's job.
FaultPlan parse_fault_plan(const std::string& text);

/// Renders a plan in the file format above, each event with exactly the
/// keys its kind takes; `parse_fault_plan(render_fault_plan(plan))`
/// round-trips every field the kind uses.
std::string render_fault_plan(const FaultPlan& plan);

}  // namespace numaio::faults
