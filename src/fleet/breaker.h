// Per-host circuit breaker for the fleet serving core.
//
// State machine: closed -> open on `failure_threshold` consecutive
// failures; open -> half-open after `open_cooldown` of simulated time;
// half-open admits one probe at a time — kBreakerProbeSuccesses
// consecutive probe successes close the breaker, any probe failure
// re-opens it (cooldown restarts). A force-trip (host crash observed by
// the control plane) opens it immediately from any state.
//
// Pure simulated-time state; every transition is reported through the
// optional callback so the fleet layer can emit `fleet.breaker` trace
// events citing the fault transition that caused it.
#pragma once

#include <functional>

#include "simcore/units.h"

namespace numaio::fleet {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState state);

/// Consecutive half-open probe successes that close the breaker.
inline constexpr int kBreakerProbeSuccesses = 2;

struct BreakerConfig {
  int failure_threshold = 4;     ///< Consecutive failures that trip it.
  sim::Ns open_cooldown = 0.5e9; ///< Open dwell before half-open probes.
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {}) : config_(config) {}

  /// (from, to, now, reason) on every state change.
  using TransitionCallback = std::function<void(
      BreakerState from, BreakerState to, sim::Ns now, const char* reason)>;
  void set_transition_callback(TransitionCallback cb) { on_transition_ = cb; }

  /// Whether a dispatch would be admitted right now (const preview; the
  /// open->half-open time transition is *not* taken). True when closed,
  /// or when the cooldown has elapsed and a probe slot is free.
  bool can_accept(sim::Ns now) const;

  /// Admits one dispatch: takes the open->half-open transition when the
  /// cooldown elapsed, and claims the probe slot in half-open. Returns
  /// false when the breaker refuses; on success `*probe` says whether the
  /// dispatch is a half-open probe (pass it back to on_success/on_failure).
  bool try_acquire(sim::Ns now, bool* probe);

  void on_success(sim::Ns now, bool probe);
  void on_failure(sim::Ns now, bool probe, const char* reason);

  /// Force-open from any state (e.g. the host crashed). Resets the
  /// cooldown clock to `now`.
  void trip(sim::Ns now, const char* reason);

  BreakerState state() const { return state_; }
  /// When an open breaker starts admitting probes; meaningless if closed.
  sim::Ns reopen_at() const { return opened_at_ + config_.open_cooldown; }
  int trips() const { return trips_; }

 private:
  void transition(BreakerState to, sim::Ns now, const char* reason);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int probe_streak_ = 0;
  bool probe_inflight_ = false;
  sim::Ns opened_at_ = 0.0;
  int trips_ = 0;
  TransitionCallback on_transition_;
};

}  // namespace numaio::fleet
