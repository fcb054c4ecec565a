// FaultInjector: executes a FaultPlan against a fabric::Machine.
//
// Every fault becomes a sequence of timed *transitions* (fault-on /
// fault-off boundaries; a flap event contributes one pair per dead
// window). Applying a transition recomputes the complete degradation state
// at that instant — the product of all active faults per resource — and
// writes it into the machine through its fault-scale hooks, so overlapping
// faults compose multiplicatively and releasing one fault never forgets
// another that is still active.
//
// Two driving modes, freely mixable along one timeline:
//  - arm(fluid): transitions become FluidSimulation control events, so
//    rates re-solve exactly at each fault boundary (fio runs, the online
//    scheduler);
//  - advance_to(t): applies all transitions up to logical time t directly
//    (the fleet, which steps its own event engine).
//
// measure-noise events are applied and traced like any other kind, but
// touch no capacity, and no measurement reads them: Algorithm 1 runs
// fault-free.
//
// The injector records every applied transition; trace_to_string() renders
// them deterministically — two runs with the same plan produce
// byte-identical traces, which tests and the CLI rely on.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/machine.h"
#include "faults/fault_plan.h"
#include "obs/obs.h"
#include "simcore/fluid_sim.h"

namespace numaio::faults {

class FaultInjector {
 public:
  /// Validates the plan against the machine (device events additionally
  /// need register_device() before arm/advance touches them).
  FaultInjector(fabric::Machine& machine, FaultPlan plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers a device's solver resources (engine occupancy + PCIe data
  /// resources) for kDeviceStall events. Returns the device index the
  /// plan's FaultEvent::device refers to.
  int register_device(std::string name, NodeId attach_node,
                      std::vector<sim::ResourceId> resources);
  int num_devices() const { return static_cast<int>(devices_.size()); }
  /// Index of a registered device by name; -1 when unknown. Consumers that
  /// react to device stalls use this to map their own device handles to
  /// the plan's indices.
  int device_index(std::string_view name) const;

  /// Called after *every* applied transition (capacities already changed,
  /// trace line and obs event already emitted, so last_transition_event()
  /// is the cause id); `on` is true when the fault window opens. The
  /// fleet reacts to host crashes, and fio runs abort the transfers on a
  /// device whose stall window opens.
  using TransitionHandler =
      std::function<void(const FaultEvent& event, bool on, sim::Ns at)>;
  void set_transition_handler(TransitionHandler handler);

  /// Schedules every not-yet-applied transition as a control event.
  void arm(sim::FluidSimulation& fluid);

  /// Applies all transitions with time <= t (no-op for times already
  /// passed). Keeps the machine in the degraded state of time t.
  void advance_to(sim::Ns t);

  /// Restores every capacity to healthy. Applied-transition history and
  /// the timeline cursor are kept.
  void restore();

  // --- state queries (pure functions of the plan, usable at any time) ----
  bool device_stalled(int device, sim::Ns t) const;
  /// True when any capacity-affecting fault is active at time t.
  bool any_capacity_fault_active(sim::Ns t) const;
  /// Nodes touched by active capacity faults at time t (sorted, unique):
  /// endpoints of degraded links, throttled MCs, stormed nodes, and the
  /// attach node of stalled devices. The online scheduler steers clear of
  /// these.
  std::vector<NodeId> degraded_nodes(sim::Ns t) const;
  /// Time of the first transition after t; +inf when none remain.
  sim::Ns next_transition_after(sim::Ns t) const;

  // --- host-level queries (fleet host ids, not NUMA nodes) ---------------
  /// True while a kHostCrash window covers t.
  bool host_crashed(int host, sim::Ns t) const;
  /// The host's service-rate multiplier in [0, 1]: 0 while a kHostCrash or
  /// kHostHang window covers t, otherwise the product of (1 - severity)
  /// over the active kHostRecover windows (the warm-up factor).
  double host_factor(int host, sim::Ns t) const;

  const FaultPlan& plan() const { return plan_; }
  fabric::Machine& machine() { return machine_; }

  /// One line per applied transition, byte-identical across same-seed runs.
  std::string trace_to_string() const;

  /// Attaches an observability context (nullptr detaches). Every applied
  /// transition then emits a `fault.transition` instant event and bumps
  /// `faults.transitions`; consumers correlate their abort/retry events to
  /// the transition that caused them via last_transition_event().
  void set_observer(obs::Context* obs);
  /// Trace-event id of the most recently applied transition (0 when none
  /// was recorded). The transition handler runs after the transition
  /// event is emitted, so it can already cite this id.
  obs::EventId last_transition_event() const {
    return last_transition_event_;
  }

 private:
  struct Transition {
    sim::Ns at = 0.0;
    std::size_t event = 0;  ///< Index into plan_.events().
    bool on = false;        ///< Fault (or dead flap window) begins here.
    int flap = 0;           ///< Dead-window ordinal of a flapping kind.
  };
  struct Device {
    std::string name;
    NodeId attach_node = 0;
    std::vector<sim::ResourceId> resources;
    std::vector<sim::Gbps> healthy_capacity;
  };

  bool event_active(const FaultEvent& e, sim::Ns t) const;
  /// The one active-window scan behind every query: the product of
  /// effect(e) over the events active at t that `match` selects, in plan
  /// order; 1 when none is.
  template <typename Match>
  double active_product(sim::Ns t, Match match) const;
  void apply_state_at(sim::Ns t);
  void apply_transition(std::size_t index);

  fabric::Machine& machine_;
  FaultPlan plan_;
  std::vector<Transition> transitions_;  // ascending (at, event, !on)
  std::vector<Device> devices_;
  std::vector<bool> stalled_applied_;    // per device, currently applied
  TransitionHandler transition_handler_;
  std::size_t cursor_ = 0;               // next transition to apply
  std::vector<std::string> trace_;

  obs::Context* obs_ = nullptr;
  obs::MetricsRegistry::Id m_transitions_ = obs::MetricsRegistry::kNone;
  obs::EventId last_transition_event_ = 0;
};

}  // namespace numaio::faults
