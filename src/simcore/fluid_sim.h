// Hybrid fluid-flow simulation.
//
// Transfers carry a byte count over a path of FlowSolver resources. While a
// set of transfers is active, each progresses at its max-min-fair rate; the
// rate allocation is recomputed whenever a transfer starts or completes
// (the classical fluid approximation used in bandwidth studies). This gives
// exact completion times under piecewise-constant fair sharing without
// per-packet events, which is the right granularity for the paper's
// steady-state bandwidth experiments.
//
// Deferred starts and control events wait in a member sim::AlarmEngine
// (DESIGN.md §13) as control closures; the simulation keeps its own clock
// and integration loop and drains the engine up to the current instant
// before each fluid step.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "simcore/alarm_engine.h"
#include "simcore/flow_solver.h"
#include "simcore/units.h"

namespace numaio::sim {

class FluidSimulation {
 public:
  using TransferId = std::size_t;
  /// Called when a transfer finishes; receives the id and completion time.
  /// The callback may start new transfers.
  using CompletionFn = std::function<void(TransferId, Ns)>;

  /// The solver holds the resource network; the simulation owns the flows it
  /// creates on it. The solver must outlive the simulation.
  explicit FluidSimulation(FlowSolver& solver) : solver_(solver) {}
  // Scheduled starts hold `this`.
  FluidSimulation(const FluidSimulation&) = delete;
  FluidSimulation& operator=(const FluidSimulation&) = delete;

  /// Starts a transfer immediately (at the current simulated time).
  TransferId start_transfer(std::vector<Usage> usages, Bytes bytes,
                            Gbps rate_cap = kUnlimited,
                            CompletionFn on_complete = {});

  /// Schedules a transfer to start at absolute time `at` (>= now()).
  TransferId start_transfer_at(Ns at, std::vector<Usage> usages,
                               Bytes bytes, Gbps rate_cap = kUnlimited,
                               CompletionFn on_complete = {});

  /// Control events: at absolute time `at`, `fn` runs and the fair-share
  /// allocation is recomputed. This is how time-varying *infrastructure*
  /// enters the fluid model — a fault window scaling a link capacity, a
  /// watchdog aborting a stuck transfer, a retry relaunching one — without
  /// falsifying the contention math (rates re-solve at every change
  /// point). A control scheduled in the past runs at the current instant.
  /// Controls and deferred starts due at the same instant fire in the
  /// order they were scheduled, so a control scheduled before a start at
  /// its instant runs before that transfer's flow joins. Completions beat
  /// both at an exact tie, so a transfer finishing exactly at its
  /// deadline counts as finished.
  using ControlFn = AlarmEngine::Callback;
  void schedule_control(Ns at, ControlFn fn);

  /// Aborts an active or not-yet-started transfer: its flow leaves the
  /// network, stats record the partial byte count and `aborted = true`,
  /// and the completion callback is NOT invoked. Returns false (and does
  /// nothing) when the transfer already finished or was already aborted.
  bool abort_transfer(TransferId id);

  /// Runs until every transfer (including ones spawned by completion
  /// callbacks) has finished or aborted and all control events have fired.
  /// Returns the final simulated time.
  Ns run();

  Ns now() const { return now_; }

  struct TransferStats {
    /// When the transfer started; until a deferred transfer activates,
    /// its scheduled start.
    Ns start = 0.0;
    Ns end = 0.0;
    Bytes bytes = 0;        ///< Requested payload.
    Bytes bytes_moved = 0;  ///< Actually transferred (== bytes unless aborted).
    bool done = false;
    bool aborted = false;
    /// Average rate over the transfer's lifetime (moved bytes / lifetime).
    Gbps avg_rate() const {
      return end > start ? gbps(bytes_moved, end - start) : 0.0;
    }
  };
  const TransferStats& stats(TransferId id) const;
  std::size_t transfer_count() const { return transfers_.size(); }

  /// One constant-rate phase of a transfer's lifetime.
  struct RateSegment {
    Ns duration = 0.0;
    Gbps rate = 0.0;
  };

  /// The constant-rate segments of a transfer's lifetime so far. The
  /// paper leans on rate stability to justify single long transfers
  /// ("the bandwidth performance is stable over the whole data transfer
  /// process", §V-B); traces let callers verify it.
  const std::vector<RateSegment>& trace(TransferId id) const;

  /// Time-weighted mean rate and the time-weighted coefficient of
  /// variation of the traced rate; cv == 0 for perfectly steady flows.
  struct RateStability {
    Gbps mean = 0.0;
    double cv = 0.0;
  };
  RateStability rate_stability(TransferId id) const;

  /// Total bytes moved divided by the time from the first start to the last
  /// completion — the "average aggregate performance" the paper reports.
  Gbps aggregate_rate() const;

 private:
  struct Transfer {
    std::vector<Usage> usages;
    Gbps rate_cap = kUnlimited;
    double remaining_bits = 0.0;
    FlowId flow = 0;
    bool active = false;
    AlarmEngine::Handle start;  ///< A deferred start's closure.
    CompletionFn on_complete;
    TransferStats stats;
    std::vector<RateSegment> trace;
  };

  void activate(TransferId id);
  void complete(TransferId id);

  FlowSolver& solver_;
  Ns now_ = 0.0;
  AlarmEngine engine_;  // deferred starts and control events
  std::vector<Transfer> transfers_;
  // Active transfers, sorted ascending by id so the per-event loops walk
  // live work in deterministic id order instead of rescanning every
  // transfer ever started.
  std::vector<TransferId> active_;
  std::vector<TransferId> due_;  // reusable completion-sweep scratch
};

}  // namespace numaio::sim
