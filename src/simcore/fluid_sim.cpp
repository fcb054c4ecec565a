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
  transfers_.push_back(std::move(t));
  const TransferId id = transfers_.size() - 1;
  if (at <= now_) {
    activate(id);
  } else {
    // Descending by time (ties: later id last) so the soonest start is at
    // the back and pops cheaply. A positional insert keeps the invariant
    // at O(log n + shift) instead of the former full re-sort per arrival.
    const Pending p{at, id};
    const auto later = [](const Pending& a, const Pending& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    };
    pending_.insert(
        std::upper_bound(pending_.begin(), pending_.end(), p, later), p);
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
  Control c{std::max(at, now_), next_control_seq_++, std::move(fn)};
  // Descending by time; FIFO at equal times (higher seq sorts earlier in
  // the vector, so the back — the next to fire — has the lowest seq).
  // Positional insert: (at, seq) is unique, so the resulting order is
  // exactly what the former full re-sort produced.
  const auto later = [](const Control& a, const Control& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  };
  controls_.insert(
      std::upper_bound(controls_.begin(), controls_.end(), c, later),
      std::move(c));
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
    // Not yet started: drop the pending entry.
    const auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [id](const Pending& p) { return p.id == id; });
    if (it == pending_.end()) return false;  // already aborted earlier
    pending_.erase(it);
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
  while (!active_.empty() || !pending_.empty() || !controls_.empty()) {
    if (active_.empty()) {
      // Jump to the next scheduled start or control point.
      Ns next = std::numeric_limits<double>::infinity();
      if (!pending_.empty()) next = pending_.back().at;
      if (!controls_.empty()) next = std::min(next, controls_.back().at);
      now_ = std::max(now_, next);
    }
    // Activate all starts due now.
    while (!pending_.empty() && pending_.back().at <= now_) {
      const TransferId id = pending_.back().id;
      pending_.pop_back();
      activate(id);
    }
    // Fire controls due now (they may mutate capacities, abort transfers,
    // or schedule new work — including more controls at this instant).
    while (!controls_.empty() && controls_.back().at <= now_) {
      ControlFn fn = std::move(controls_.back().fn);
      controls_.pop_back();
      fn();
    }
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
    // Next arrival or control point may preempt the completion (and keeps
    // dt finite through full-starvation windows, e.g. a stalled device).
    if (!pending_.empty()) dt = std::min(dt, pending_.back().at - now_);
    if (!controls_.empty()) dt = std::min(dt, controls_.back().at - now_);
    assert(std::isfinite(dt) &&
           "all active transfers are rate-starved with nothing pending");

    // Advance the fluid state.
    now_ += dt;
    due_.clear();
    for (const TransferId id : active_) {
      Transfer& t = transfers_[id];
      t.remaining_bits -= rates[t.flow] * dt;
      if (trace_ && dt > 0.0) {
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
