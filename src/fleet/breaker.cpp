#include "fleet/breaker.h"

namespace numaio::fleet {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void CircuitBreaker::transition(BreakerState to, sim::Ns now,
                                const char* reason) {
  if (to == state_) return;
  const BreakerState from = state_;
  state_ = to;
  if (to == BreakerState::kOpen) {
    opened_at_ = now;
    ++trips_;
    probe_streak_ = 0;
    probe_inflight_ = false;
    consecutive_failures_ = 0;
  } else if (to == BreakerState::kHalfOpen) {
    probe_streak_ = 0;
    probe_inflight_ = false;
  } else {  // closed
    consecutive_failures_ = 0;
  }
  if (on_transition_) on_transition_(from, to, now, reason);
}

bool CircuitBreaker::can_accept(sim::Ns now) const {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return now >= reopen_at();  // would go half-open and probe
    case BreakerState::kHalfOpen:
      return !probe_inflight_;
  }
  return false;
}

bool CircuitBreaker::try_acquire(sim::Ns now, bool* probe) {
  *probe = false;
  if (state_ == BreakerState::kOpen && now >= reopen_at()) {
    transition(BreakerState::kHalfOpen, now, "cooldown");
  }
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return false;
    case BreakerState::kHalfOpen:
      if (probe_inflight_) return false;
      probe_inflight_ = true;
      *probe = true;
      return true;
  }
  return false;
}

void CircuitBreaker::on_success(sim::Ns now, bool probe) {
  if (state_ == BreakerState::kHalfOpen) {
    if (probe) {
      probe_inflight_ = false;
      ++probe_streak_;
      if (probe_streak_ >= kBreakerProbeSuccesses) {
        transition(BreakerState::kClosed, now, "probes");
      }
    }
    return;
  }
  consecutive_failures_ = 0;
}

void CircuitBreaker::on_failure(sim::Ns now, bool probe, const char* reason) {
  if (state_ == BreakerState::kHalfOpen) {
    if (probe) probe_inflight_ = false;
    transition(BreakerState::kOpen, now, reason);
    return;
  }
  if (state_ != BreakerState::kClosed) return;
  ++consecutive_failures_;
  if (consecutive_failures_ >= config_.failure_threshold) {
    transition(BreakerState::kOpen, now, reason);
  }
}

void CircuitBreaker::trip(sim::Ns now, const char* reason) {
  if (state_ == BreakerState::kOpen) {
    opened_at_ = now;  // restart the cooldown
    return;
  }
  transition(BreakerState::kOpen, now, reason);
}

}  // namespace numaio::fleet
