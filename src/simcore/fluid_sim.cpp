#include "simcore/fluid_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace numaio::sim {

namespace {
constexpr double kBitEps = 1e-6;  // bits of slack treated as "finished"
}

FluidSimulation::TransferId FluidSimulation::start_transfer(
    std::vector<Usage> usages, Bytes bytes, Gbps rate_cap,
    CompletionFn on_complete) {
  return start_transfer_at(now_, std::move(usages), bytes, rate_cap,
                           std::move(on_complete));
}

FluidSimulation::TransferId FluidSimulation::start_transfer_at(
    Ns at, std::vector<Usage> usages, Bytes bytes, Gbps rate_cap,
    CompletionFn on_complete) {
  assert(at >= now_ && "cannot start a transfer in the past");
  assert(bytes > 0);
  Transfer t;
  t.usages = std::move(usages);
  t.rate_cap = rate_cap;
  t.remaining_bits = static_cast<double>(bytes) * 8.0;
  t.on_complete = std::move(on_complete);
  t.stats.bytes = bytes;
  t.stats.start = at;
  transfers_.push_back(std::move(t));
  const TransferId id = transfers_.size() - 1;
  if (at <= now_) {
    activate(id);
  } else {
    transfers_[id].start =
        engine_.schedule_at(at, [this, id] { activate(id); });
  }
  return id;
}

void FluidSimulation::activate(TransferId id) {
  Transfer& t = transfers_[id];
  assert(!t.active && !t.stats.done);
  t.flow = solver_.add_flow(t.usages, t.rate_cap);
  t.active = true;
  t.stats.start = now_;
  // Fresh transfers append (ids grow monotonically); activations out of
  // pending order insert in place to keep the index sorted.
  if (active_.empty() || active_.back() < id) {
    active_.push_back(id);
  } else {
    active_.insert(std::lower_bound(active_.begin(), active_.end(), id), id);
  }
}

void FluidSimulation::complete(TransferId id) {
  Transfer& t = transfers_[id];
  assert(t.active);
  solver_.remove_flow(t.flow);
  t.active = false;
  t.stats.done = true;
  t.stats.end = now_;
  t.stats.bytes_moved = t.stats.bytes;
  const auto it = std::lower_bound(active_.begin(), active_.end(), id);
  assert(it != active_.end() && *it == id);
  active_.erase(it);
  if (t.on_complete) t.on_complete(id, now_);
}

void FluidSimulation::schedule_control(Ns at, ControlFn fn) {
  assert(fn);
  engine_.schedule_at(std::max(at, now_), std::move(fn));
}

bool FluidSimulation::abort_transfer(TransferId id) {
  assert(id < transfers_.size());
  Transfer& t = transfers_[id];
  if (t.stats.done) return false;
  if (t.active) {
    solver_.remove_flow(t.flow);
    t.active = false;
    const auto it = std::lower_bound(active_.begin(), active_.end(), id);
    assert(it != active_.end() && *it == id);
    active_.erase(it);
  } else {
    engine_.cancel(t.start);  // not yet started: it never will
    t.stats.start = now_;
  }
  t.stats.done = true;
  t.stats.aborted = true;
  t.stats.end = now_;
  const double moved_bits =
      static_cast<double>(t.stats.bytes) * 8.0 - t.remaining_bits;
  t.stats.bytes_moved =
      static_cast<Bytes>(std::max(moved_bits, 0.0) / 8.0);
  return true;
}

Ns FluidSimulation::run() {
  while (!active_.empty() || engine_.pending() > 0) {
    // Idle: jump to the next scheduled start or control point.
    if (active_.empty()) now_ = std::max(now_, engine_.next_event_time());
    // Fire the starts and controls due now, in scheduling order. Controls
    // may mutate capacities, abort transfers, or schedule new work —
    // including more events at this instant.
    engine_.run_until(now_);
    if (active_.empty()) continue;  // controls may have drained the run

    // A cache hit in the solver (nothing mutated since the last event)
    // makes this a cheap reference grab, not a re-solve.
    const std::vector<Gbps>& rates = solver_.solve();

    // Next completion among active transfers.
    Ns dt = std::numeric_limits<double>::infinity();
    for (const TransferId id : active_) {
      const Transfer& t = transfers_[id];
      const Gbps r = rates[t.flow];
      if (r > 0.0) dt = std::min(dt, t.remaining_bits / r);
    }
    // The next start or control point may preempt the completion (and
    // keeps dt finite through full-starvation windows, e.g. a stalled
    // device).
    dt = std::min(dt, engine_.next_event_time() - now_);
    assert(std::isfinite(dt) &&
           "all active transfers are rate-starved with nothing pending");

    // Advance the fluid state.
    now_ += dt;
    due_.clear();
    for (const TransferId id : active_) {
      Transfer& t = transfers_[id];
      t.remaining_bits -= rates[t.flow] * dt;
      if (dt > 0.0) {
        // Merge with the previous segment when the rate is unchanged so
        // traces stay proportional to rate *changes*, not solver calls.
        if (!t.trace.empty() && t.trace.back().rate == rates[t.flow]) {
          t.trace.back().duration += dt;
        } else {
          t.trace.push_back(RateSegment{dt, rates[t.flow]});
        }
      }
      if (t.remaining_bits <= kBitEps) due_.push_back(id);
    }
    // Complete in id order for determinism (due_ inherits active_'s
    // order). complete() may start new transfers via callbacks — they
    // begin now with a full byte count, so they can't be due — and a
    // callback may abort a later due transfer, hence the re-check.
    for (const TransferId id : due_) {
      if (transfers_[id].active) complete(id);
    }
  }
  return now_;
}

const FluidSimulation::TransferStats& FluidSimulation::stats(
    TransferId id) const {
  assert(id < transfers_.size());
  return transfers_[id].stats;
}

const std::vector<FluidSimulation::RateSegment>& FluidSimulation::trace(
    TransferId id) const {
  assert(id < transfers_.size());
  return transfers_[id].trace;
}

FluidSimulation::RateStability FluidSimulation::rate_stability(
    TransferId id) const {
  assert(id < transfers_.size());
  RateStability out;
  const auto& segments = transfers_[id].trace;
  Ns total = 0.0;
  for (const RateSegment& s : segments) total += s.duration;
  if (total <= 0.0) return out;
  for (const RateSegment& s : segments) {
    out.mean += s.rate * (s.duration / total);
  }
  double var = 0.0;
  for (const RateSegment& s : segments) {
    var += (s.rate - out.mean) * (s.rate - out.mean) * (s.duration / total);
  }
  if (out.mean > 0.0) out.cv = std::sqrt(var) / out.mean;
  return out;
}

Gbps FluidSimulation::aggregate_rate() const {
  if (transfers_.empty()) return 0.0;
  Ns first_start = std::numeric_limits<double>::infinity();
  Ns last_end = 0.0;
  Bytes total = 0;
  for (const Transfer& t : transfers_) {
    assert(t.stats.done && "aggregate_rate() is meaningful after run()");
    first_start = std::min(first_start, t.stats.start);
    last_end = std::max(last_end, t.stats.end);
    total += t.stats.bytes_moved;
  }
  return last_end > first_start ? gbps(total, last_end - first_start) : 0.0;
}

}  // namespace numaio::sim
