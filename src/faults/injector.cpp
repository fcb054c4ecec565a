#include "faults/injector.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

namespace numaio::faults {

namespace {
/// Capacity scale of a stalled device resource: effectively dark, but the
/// max-min solve stays finite; control events bound the window in time.
constexpr double kStallScale = 1e-9;

FaultTarget target_of(const FaultEvent& e) { return kind_info(e.kind).target; }

/// What an active event does to its target, by the kind's severity
/// meaning: the capacity scale 1 - sev, the noise amplification 1 + sev,
/// or 0 for the kinds that take their target out whole.
double effect(const FaultEvent& e) {
  switch (kind_info(e.kind).severity) {
    case FaultSeverity::kCapacity:
      return std::max(1.0 - e.severity, 0.0);
    case FaultSeverity::kNoise:
      return 1.0 + e.severity;
    case FaultSeverity::kNone:
      break;
  }
  return 0.0;
}

/// True when a and b act on the same thing: one link, one node's memory
/// controller or cores, one device, one host, or measurement.
bool same_target(const FaultEvent& a, const FaultEvent& b) {
  const FaultTarget target = target_of(a);
  if (target != target_of(b)) return false;
  switch (target) {
    case FaultTarget::kLink:
      return a.src == b.src && a.dst == b.dst;
    case FaultTarget::kNodeMemory:
    case FaultTarget::kNodeCpu:
      return a.node == b.node;
    case FaultTarget::kDevice:
      return a.device == b.device;
    case FaultTarget::kHost:
      return a.host == b.host;
    case FaultTarget::kNone:
      break;
  }
  return true;
}
}  // namespace

FaultInjector::FaultInjector(fabric::Machine& machine, FaultPlan plan)
    : machine_(machine), plan_(std::move(plan)) {
  // Device indices are validated lazily (devices register after
  // construction); everything else is checked now.
  plan_.validate(machine_.num_nodes(), INT_MAX);

  const auto& events = plan_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (kind_info(e.kind).flaps) {
      const sim::Ns slice = e.duration / (2.0 * e.flaps);
      for (int k = 0; k < e.flaps; ++k) {
        const sim::Ns down = e.start + 2.0 * k * slice;
        transitions_.push_back(Transition{down, i, true, k + 1});
        transitions_.push_back(Transition{down + slice, i, false, k + 1});
      }
    } else {
      transitions_.push_back(Transition{e.start, i, true, 0});
      transitions_.push_back(Transition{e.start + e.duration, i, false, 0});
    }
  }
  std::sort(transitions_.begin(), transitions_.end(),
            [](const Transition& a, const Transition& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.event != b.event) return a.event < b.event;
              return a.on < b.on;  // releases before onsets at a tie
            });
}

FaultInjector::~FaultInjector() { restore(); }

int FaultInjector::register_device(std::string name, NodeId attach_node,
                                   std::vector<sim::ResourceId> resources) {
  Device dev;
  dev.name = std::move(name);
  dev.attach_node = attach_node;
  dev.healthy_capacity.reserve(resources.size());
  for (sim::ResourceId r : resources) {
    dev.healthy_capacity.push_back(machine_.solver().capacity(r));
  }
  dev.resources = std::move(resources);
  devices_.push_back(std::move(dev));
  stalled_applied_.push_back(false);
  return static_cast<int>(devices_.size()) - 1;
}

int FaultInjector::device_index(std::string_view name) const {
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (devices_[d].name == name) return static_cast<int>(d);
  }
  return -1;
}

void FaultInjector::set_transition_handler(TransitionHandler handler) {
  transition_handler_ = std::move(handler);
}

void FaultInjector::set_observer(obs::Context* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  m_transitions_ = obs_->metrics.counter("faults.transitions");
}

bool FaultInjector::event_active(const FaultEvent& e, sim::Ns t) const {
  if (t < e.start || t >= e.start + e.duration) return false;
  if (!kind_info(e.kind).flaps) return true;
  // Dead windows are the even slices of the flap interval.
  const sim::Ns slice = e.duration / (2.0 * e.flaps);
  const double offset = (t - e.start) / slice;
  return (static_cast<long long>(offset) % 2) == 0;
}

template <typename Match>
double FaultInjector::active_product(sim::Ns t, Match match) const {
  double product = 1.0;
  for (const FaultEvent& e : plan_.events()) {
    if (match(e) && event_active(e, t)) product *= effect(e);
  }
  return product;
}

void FaultInjector::apply_state_at(sim::Ns t) {
  // Recompute the full multiplicative state from scratch; with the small
  // event counts of any realistic plan this is cheaper than being clever
  // and can never leak a scale when overlapping windows release.
  for (const FaultEvent& anchor : plan_.events()) {
    const auto scale = [&] {
      return active_product(
          t, [&](const FaultEvent& e) { return same_target(e, anchor); });
    };
    switch (target_of(anchor)) {
      case FaultTarget::kLink:
        machine_.set_fabric_scale(anchor.src, anchor.dst, scale());
        break;
      case FaultTarget::kNodeMemory:
        machine_.set_mc_scale(anchor.node, scale());
        break;
      case FaultTarget::kNodeCpu:
        machine_.set_cpu_scale(anchor.node, scale());
        break;
      case FaultTarget::kDevice: {
        if (anchor.device >= static_cast<int>(devices_.size())) {
          throw std::invalid_argument(
              "fault plan stalls device " + std::to_string(anchor.device) +
              " but only " + std::to_string(devices_.size()) +
              " devices are registered");
        }
        const bool stalled = device_stalled(anchor.device, t);
        const auto d = static_cast<std::size_t>(anchor.device);
        if (stalled != stalled_applied_[d]) {
          const Device& dev = devices_[d];
          for (std::size_t r = 0; r < dev.resources.size(); ++r) {
            machine_.solver().set_capacity(
                dev.resources[r],
                dev.healthy_capacity[r] * (stalled ? kStallScale : 1.0));
          }
          stalled_applied_[d] = stalled;
        }
        break;
      }
      case FaultTarget::kHost:
      case FaultTarget::kNone:
        break;  // no machine effect: the fleet and measurement loops query
    }
  }
}

void FaultInjector::apply_transition(std::size_t index) {
  assert(index < transitions_.size());
  const Transition& tr = transitions_[index];
  const FaultEvent& e = plan_.events()[tr.event];
  const FaultKindInfo& kind = kind_info(e.kind);
  apply_state_at(tr.at);

  // The target as the trace line names it and the event's fields carry it.
  char where[160] = "";
  obs::EventFields fields;
  fields.t_sim = tr.at;
  std::string detail = kind.name;
  switch (kind.target) {
    case FaultTarget::kLink:
      std::snprintf(where, sizeof where, " %d>%d", e.src, e.dst);
      fields.node_a = e.src;
      fields.node_b = e.dst;
      break;
    case FaultTarget::kNodeMemory:
    case FaultTarget::kNodeCpu:
      std::snprintf(where, sizeof where, " node %d", e.node);
      fields.node_a = e.node;
      break;
    case FaultTarget::kDevice: {
      const bool known = e.device < static_cast<int>(devices_.size());
      const Device* dev =
          known ? &devices_[static_cast<std::size_t>(e.device)] : nullptr;
      std::snprintf(where, sizeof where, " device %d (%s)", e.device,
                    known ? dev->name.c_str() : "?");
      if (known) {
        fields.node_a = dev->attach_node;
        detail += " " + dev->name;
      }
      break;
    }
    case FaultTarget::kHost:
      std::snprintf(where, sizeof where, " host %d", e.host);
      fields.node_a = e.host;
      break;
    case FaultTarget::kNone:
      break;
  }

  char buf[384];  // holds "%14.6f" of any finite time
  std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s", tr.at / 1e9, kind.name);
  std::string line = buf;
  line += where;
  if (kind.flaps) {
    std::snprintf(buf, sizeof buf, " %s (%d/%d)", tr.on ? "down" : "up",
                  tr.flap, e.flaps);
    line += buf;
  } else {
    line += tr.on ? " on" : " off";
    const double shown = tr.on ? effect(e) : 1.0;
    if (kind.severity == FaultSeverity::kCapacity) {
      std::snprintf(buf, sizeof buf, " (scale %.2f)", shown);
      line += buf;
    } else if (kind.severity == FaultSeverity::kNoise) {
      std::snprintf(buf, sizeof buf, " (amp %.2fx)", shown);
      line += buf;
    }
  }
  trace_.push_back(std::move(line));

  if (obs_ != nullptr) {
    obs_->metrics.add(m_transitions_);
    if (obs_->trace.enabled()) {
      fields.detail = detail;
      last_transition_event_ = obs_->trace.event(
          "fault.transition", 0, 0, tr.on ? "on" : "off", fields);
    }
  }

  if (transition_handler_) transition_handler_(e, tr.on, tr.at);
}

void FaultInjector::arm(sim::FluidSimulation& fluid) {
  for (std::size_t i = cursor_; i < transitions_.size(); ++i) {
    fluid.schedule_control(transitions_[i].at, [this, i] {
      // Controls fire in time order; the guard tolerates a caller that
      // also stepped the timeline with advance_to().
      while (cursor_ <= i) {
        apply_transition(cursor_);
        ++cursor_;
      }
    });
  }
}

void FaultInjector::advance_to(sim::Ns t) {
  while (cursor_ < transitions_.size() && transitions_[cursor_].at <= t) {
    apply_transition(cursor_);
    ++cursor_;
  }
}

void FaultInjector::restore() {
  machine_.reset_fault_scales();
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (!stalled_applied_[d]) continue;
    const Device& dev = devices_[d];
    for (std::size_t r = 0; r < dev.resources.size(); ++r) {
      machine_.solver().set_capacity(dev.resources[r],
                                     dev.healthy_capacity[r]);
    }
    stalled_applied_[d] = false;
  }
}

bool FaultInjector::device_stalled(int device, sim::Ns t) const {
  return active_product(t, [device](const FaultEvent& e) {
           return target_of(e) == FaultTarget::kDevice && e.device == device;
         }) == 0.0;
}

bool FaultInjector::any_capacity_fault_active(sim::Ns t) const {
  for (const FaultEvent& e : plan_.events()) {
    // Host and measurement faults never touch the machine's capacities.
    const FaultTarget target = target_of(e);
    if (target == FaultTarget::kHost || target == FaultTarget::kNone) {
      continue;
    }
    if (event_active(e, t)) return true;
  }
  return false;
}

std::vector<NodeId> FaultInjector::degraded_nodes(sim::Ns t) const {
  std::vector<NodeId> nodes;
  for (const FaultEvent& e : plan_.events()) {
    if (!event_active(e, t)) continue;
    switch (target_of(e)) {
      case FaultTarget::kLink:
        nodes.push_back(e.src);
        nodes.push_back(e.dst);
        break;
      case FaultTarget::kNodeMemory:
      case FaultTarget::kNodeCpu:
        nodes.push_back(e.node);
        break;
      case FaultTarget::kDevice:
        if (e.device < static_cast<int>(devices_.size())) {
          nodes.push_back(
              devices_[static_cast<std::size_t>(e.device)].attach_node);
        }
        break;
      case FaultTarget::kHost:
      case FaultTarget::kNone:
        break;  // host faults live in the fleet id space, not NUMA nodes
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

bool FaultInjector::host_crashed(int host, sim::Ns t) const {
  return active_product(t, [host](const FaultEvent& e) {
           return e.kind == FaultKind::kHostCrash && e.host == host;
         }) == 0.0;
}

double FaultInjector::host_factor(int host, sim::Ns t) const {
  return active_product(t, [host](const FaultEvent& e) {
    return target_of(e) == FaultTarget::kHost && e.host == host;
  });
}

sim::Ns FaultInjector::next_transition_after(sim::Ns t) const {
  for (const Transition& tr : transitions_) {
    if (tr.at > t) return tr.at;
  }
  return std::numeric_limits<double>::infinity();
}

std::string FaultInjector::trace_to_string() const {
  std::string out;
  for (const std::string& line : trace_) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace numaio::faults
