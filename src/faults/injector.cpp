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
}  // namespace

FaultInjector::FaultInjector(fabric::Machine& machine, FaultPlan plan)
    : machine_(machine), plan_(std::move(plan)) {
  // Device indices are validated lazily (devices register after
  // construction); everything else is checked now.
  plan_.validate(machine_.num_nodes(), INT_MAX);

  const auto& events = plan_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.kind == FaultKind::kLinkFlap) {
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

void FaultInjector::set_stall_handler(StallHandler handler) {
  stall_handler_ = std::move(handler);
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
  if (e.kind != FaultKind::kLinkFlap) return true;
  // Dead windows are the even slices of the flap interval.
  const sim::Ns slice = e.duration / (2.0 * e.flaps);
  const double offset = (t - e.start) / slice;
  return (static_cast<long long>(offset) % 2) == 0;
}

double FaultInjector::event_factor(const FaultEvent& e, sim::Ns t) const {
  if (!event_active(e, t)) return 1.0;
  return std::max(1.0 - e.severity, 0.0);
}

void FaultInjector::apply_state_at(sim::Ns t) {
  const auto& events = plan_.events();

  // Recompute the full multiplicative state from scratch; with the small
  // event counts of any realistic plan this is cheaper than being clever
  // and can never leak a scale when overlapping windows release.
  for (const FaultEvent& anchor : events) {
    switch (anchor.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap: {
        double scale = 1.0;
        for (const FaultEvent& e : events) {
          if ((e.kind == FaultKind::kLinkDegrade ||
               e.kind == FaultKind::kLinkFlap) &&
              e.src == anchor.src && e.dst == anchor.dst) {
            scale *= event_factor(e, t);
          }
        }
        machine_.set_fabric_scale(anchor.src, anchor.dst, scale);
        break;
      }
      case FaultKind::kMcThrottle: {
        double scale = 1.0;
        for (const FaultEvent& e : events) {
          if (e.kind == FaultKind::kMcThrottle && e.node == anchor.node) {
            scale *= event_factor(e, t);
          }
        }
        machine_.set_mc_scale(anchor.node, scale);
        break;
      }
      case FaultKind::kIrqStorm: {
        double scale = 1.0;
        for (const FaultEvent& e : events) {
          if (e.kind == FaultKind::kIrqStorm && e.node == anchor.node) {
            scale *= event_factor(e, t);
          }
        }
        machine_.set_cpu_scale(anchor.node, scale);
        break;
      }
      case FaultKind::kDeviceStall: {
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
      case FaultKind::kMeasureNoise:
        break;  // no capacity effect; consumers read noise_amplification()
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang:
      case FaultKind::kHostRecover:
        break;  // no machine effect; the fleet layer reads the host queries
    }
  }
}

void FaultInjector::apply_transition(std::size_t index) {
  assert(index < transitions_.size());
  const Transition& tr = transitions_[index];
  const FaultEvent& e = plan_.events()[tr.event];
  apply_state_at(tr.at);

  char buf[192];
  switch (e.kind) {
    case FaultKind::kLinkDegrade:
      std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s %d>%d %s (scale %.2f)",
                    tr.at / 1e9, to_string(e.kind), e.src, e.dst,
                    tr.on ? "on" : "off", tr.on ? 1.0 - e.severity : 1.0);
      break;
    case FaultKind::kLinkFlap:
      std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s %d>%d %s (%d/%d)",
                    tr.at / 1e9, to_string(e.kind), e.src, e.dst,
                    tr.on ? "down" : "up", tr.flap, e.flaps);
      break;
    case FaultKind::kMcThrottle:
    case FaultKind::kIrqStorm:
      std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s node %d %s (scale %.2f)",
                    tr.at / 1e9, to_string(e.kind), e.node,
                    tr.on ? "on" : "off", tr.on ? 1.0 - e.severity : 1.0);
      break;
    case FaultKind::kDeviceStall: {
      const char* name =
          e.device < static_cast<int>(devices_.size())
              ? devices_[static_cast<std::size_t>(e.device)].name.c_str()
              : "?";
      std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s device %d (%s) %s",
                    tr.at / 1e9, to_string(e.kind), e.device, name,
                    tr.on ? "on" : "off");
      break;
    }
    case FaultKind::kMeasureNoise:
      std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s %s (amp %.2fx)",
                    tr.at / 1e9, to_string(e.kind), tr.on ? "on" : "off",
                    tr.on ? 1.0 + e.severity : 1.0);
      break;
    case FaultKind::kHostCrash:
    case FaultKind::kHostHang:
      std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s host %d %s",
                    tr.at / 1e9, to_string(e.kind), e.host,
                    tr.on ? "on" : "off");
      break;
    case FaultKind::kHostRecover:
      std::snprintf(buf, sizeof buf, "t=%14.6fs %-13s host %d %s (scale %.2f)",
                    tr.at / 1e9, to_string(e.kind), e.host,
                    tr.on ? "on" : "off", tr.on ? 1.0 - e.severity : 1.0);
      break;
  }
  trace_.emplace_back(buf);

  if (obs_ != nullptr) {
    obs_->metrics.add(m_transitions_);
    if (obs_->trace.enabled()) {
      obs::EventFields fields;
      fields.t_sim = tr.at;
      std::string detail = to_string(e.kind);
      switch (e.kind) {
        case FaultKind::kLinkDegrade:
        case FaultKind::kLinkFlap:
          fields.node_a = e.src;
          fields.node_b = e.dst;
          break;
        case FaultKind::kMcThrottle:
        case FaultKind::kIrqStorm:
          fields.node_a = e.node;
          break;
        case FaultKind::kDeviceStall:
          if (e.device < static_cast<int>(devices_.size())) {
            const Device& dev = devices_[static_cast<std::size_t>(e.device)];
            fields.node_a = dev.attach_node;
            detail += " " + dev.name;
          }
          break;
        case FaultKind::kMeasureNoise:
          break;
        case FaultKind::kHostCrash:
        case FaultKind::kHostHang:
        case FaultKind::kHostRecover:
          fields.node_a = e.host;
          break;
      }
      fields.detail = detail;
      last_transition_event_ = obs_->trace.event(
          "fault.transition", 0, 0, tr.on ? "on" : "off", fields);
    }
  }

  if (tr.on && e.kind == FaultKind::kDeviceStall && stall_handler_) {
    stall_handler_(e.device, tr.at);
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

double FaultInjector::noise_amplification(sim::Ns t) const {
  double amp = 1.0;
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind == FaultKind::kMeasureNoise && event_active(e, t)) {
      amp *= 1.0 + e.severity;
    }
  }
  return amp;
}

bool FaultInjector::device_stalled(int device, sim::Ns t) const {
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind == FaultKind::kDeviceStall && e.device == device &&
        event_active(e, t)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::any_capacity_fault_active(sim::Ns t) const {
  for (const FaultEvent& e : plan_.events()) {
    // Host kinds never touch the machine's capacities.
    if (e.kind == FaultKind::kMeasureNoise ||
        e.kind == FaultKind::kHostCrash || e.kind == FaultKind::kHostHang ||
        e.kind == FaultKind::kHostRecover) {
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
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap:
        nodes.push_back(e.src);
        nodes.push_back(e.dst);
        break;
      case FaultKind::kMcThrottle:
      case FaultKind::kIrqStorm:
        nodes.push_back(e.node);
        break;
      case FaultKind::kDeviceStall:
        if (e.device < static_cast<int>(devices_.size())) {
          nodes.push_back(
              devices_[static_cast<std::size_t>(e.device)].attach_node);
        }
        break;
      case FaultKind::kMeasureNoise:
      case FaultKind::kHostCrash:
      case FaultKind::kHostHang:
      case FaultKind::kHostRecover:
        break;  // host faults live in the fleet id space, not NUMA nodes
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

bool FaultInjector::host_crashed(int host, sim::Ns t) const {
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind == FaultKind::kHostCrash && e.host == host &&
        event_active(e, t)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::host_hung(int host, sim::Ns t) const {
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind == FaultKind::kHostHang && e.host == host &&
        event_active(e, t)) {
      return true;
    }
  }
  return false;
}

double FaultInjector::host_capacity_factor(int host, sim::Ns t) const {
  double factor = 1.0;
  for (const FaultEvent& e : plan_.events()) {
    if (e.kind == FaultKind::kHostRecover && e.host == host &&
        event_active(e, t)) {
      factor *= std::max(1.0 - e.severity, 0.0);
    }
  }
  return factor;
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
