#include "simcore/flow_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace numaio::sim {

namespace {
// Weights accumulate and are later subtracted flow by flow; treat
// anything below this as zero so floating-point residue from frozen
// flows cannot resurrect a saturated resource with a bogus
// residual/weight ratio.
constexpr double kWeightEps = 1e-9;
constexpr double kEps = 1e-12;
}  // namespace

void FlowSolver::bump_epoch() {
  ++epoch_;
  cache_valid_ = false;
}

void FlowSolver::refresh_capacity(ResourceId id) {
  Resource& r = resources_[id];
  // factor == 1.0 bypasses the multiply so an unscaled resource's
  // effective capacity is bit-identical to its base.
  const Gbps eff = (r.factor == 1.0) ? r.base : r.base * r.factor;
  if (eff != r.capacity) {
    r.capacity = eff;
    bump_epoch();
  }
}

template <class T>
void FlowSolver::ensure_size(std::vector<T>& v, std::size_t n,
                             std::uint64_t& grows) {
  if (v.capacity() < n) ++grows;
  v.resize(n);
}

ResourceId FlowSolver::add_resource(std::string name, Gbps capacity) {
  assert(capacity >= 0.0);
  resources_.push_back(Resource{std::move(name), capacity, 1.0, capacity});
  incidence_.emplace_back();
  bump_epoch();
  return resources_.size() - 1;
}

void FlowSolver::set_capacity(ResourceId id, Gbps capacity) {
  assert(id < resources_.size());
  assert(capacity >= 0.0);
  resources_[id].base = capacity;
  refresh_capacity(id);
}

void FlowSolver::set_capacity_factor(ResourceId id, double factor) {
  assert(id < resources_.size());
  assert(std::isfinite(factor) && factor > 0.0);
  resources_[id].factor = factor;
  refresh_capacity(id);
}

double FlowSolver::capacity_factor(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].factor;
}

Gbps FlowSolver::capacity(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].capacity;
}

const std::string& FlowSolver::resource_name(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].name;
}

FlowId FlowSolver::add_flow(std::vector<Usage> usages, Gbps rate_cap) {
  for (const Usage& u : usages) {
    assert(u.resource < resources_.size());
    assert(u.weight > 0.0);
    (void)u;
  }
  assert(rate_cap >= 0.0);
  const std::size_t n = usages.size();

  // Prefer a free slot whose arena span already fits; newest first so a
  // remove/add churn pair reuses hot cache lines.
  FlowId slot = kNoFlow;
  for (std::size_t k = free_slots_.size(); k-- > 0;) {
    if (flows_[free_slots_[k]].span >= n) {
      slot = free_slots_[k];
      free_slots_[k] = free_slots_.back();
      free_slots_.pop_back();
      break;
    }
  }
  if (slot == kNoFlow && !free_slots_.empty()) {
    // Recycle the slot header but give it a fresh, wider arena span; the
    // old span's cells are abandoned (bounded by flow-size growth, which
    // real workloads don't do in steady state).
    slot = free_slots_.back();
    free_slots_.pop_back();
    flows_[slot].begin = usage_resource_.size();
    flows_[slot].span = n;
    usage_resource_.resize(usage_resource_.size() + n);
    usage_weight_.resize(usage_weight_.size() + n);
    usage_inc_pos_.resize(usage_inc_pos_.size() + n);
  }
  if (slot == kNoFlow) {
    slot = flows_.size();
    FlowMeta fresh;
    fresh.begin = usage_resource_.size();
    fresh.span = n;
    flows_.push_back(fresh);
    usage_resource_.resize(usage_resource_.size() + n);
    usage_weight_.resize(usage_weight_.size() + n);
    usage_inc_pos_.resize(usage_inc_pos_.size() + n);
  }

  FlowMeta& m = flows_[slot];
  m.count = n;
  m.cap = rate_cap;
  m.alive = true;
  m.prev = tail_;
  m.next = kNoFlow;
  if (tail_ != kNoFlow) {
    flows_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = m.begin + i;
    const ResourceId r = usages[i].resource;
    usage_resource_[idx] = r;
    usage_weight_[idx] = usages[i].weight;
    usage_inc_pos_[idx] = incidence_[r].size();
    incidence_[r].push_back(IncidenceEntry{slot, idx});
  }

  ++live_flows_;
  bump_epoch();
  return slot;
}

FlowId FlowSolver::add_flow_over(const std::vector<ResourceId>& path,
                                 Gbps rate_cap) {
  std::vector<Usage> usages;
  usages.reserve(path.size());
  for (ResourceId r : path) usages.push_back(Usage{r, 1.0});
  return add_flow(std::move(usages), rate_cap);
}

Status FlowSolver::remove_flow(FlowId id) {
  if (id >= flows_.size() || !flows_[id].alive) {
    return Status{StatusCode::kUsage,
                  "remove_flow: no live flow #" + std::to_string(id)};
  }
  FlowMeta& m = flows_[id];

  // Drop this flow's incidence entries; the back entry swapped into the
  // hole has its arena cell's position pointer fixed up.
  for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
    std::vector<IncidenceEntry>& inc = incidence_[usage_resource_[i]];
    const std::size_t pos = usage_inc_pos_[i];
    assert(pos < inc.size() && inc[pos].flow == id && inc[pos].usage == i);
    inc[pos] = inc.back();
    usage_inc_pos_[inc[pos].usage] = pos;
    inc.pop_back();
  }

  m.alive = false;
  if (m.prev != kNoFlow) {
    flows_[m.prev].next = m.next;
  } else {
    head_ = m.next;
  }
  if (m.next != kNoFlow) {
    flows_[m.next].prev = m.prev;
  } else {
    tail_ = m.prev;
  }
  m.prev = kNoFlow;
  m.next = kNoFlow;

  free_slots_.push_back(id);
  assert(live_flows_ > 0);
  --live_flows_;
  assert(live_flows_ + free_slots_.size() == flows_.size());
  bump_epoch();
  return Status{};
}

Status FlowSolver::set_flow_cap(FlowId id, Gbps rate_cap) {
  if (id >= flows_.size() || !flows_[id].alive) {
    return Status{StatusCode::kUsage,
                  "set_flow_cap: no live flow #" + std::to_string(id)};
  }
  assert(rate_cap >= 0.0);
  if (flows_[id].cap != rate_cap) {
    flows_[id].cap = rate_cap;
    bump_epoch();
  }
  return Status{};
}

Gbps FlowSolver::flow_cap(FlowId id) const {
  assert(id < flows_.size());
  return flows_[id].cap;
}

bool FlowSolver::flow_alive(FlowId id) const {
  assert(id < flows_.size());
  return flows_[id].alive;
}

void FlowSolver::set_observer(obs::Context* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  m_solves_ = obs_->metrics.counter("solver.solves");
  m_rounds_ = obs_->metrics.counter("solver.rounds");
  m_rounds_hist_ = obs_->metrics.histogram(
      "solver.rounds_per_solve", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  m_solve_us_ = obs_->metrics.histogram(
      "solver.solve_us", {1.0, 10.0, 100.0, 1000.0, 10000.0});
  m_cache_hits_ = obs_->metrics.counter("solver.cache_hits");
  m_cache_misses_ = obs_->metrics.counter("solver.cache_misses");
  m_flows_scanned_ = obs_->metrics.counter("solver.flows_scanned");
  m_touches_ = obs_->metrics.counter("solver.resource_touches");
}

const std::vector<Gbps>& FlowSolver::solve() const {
  ++stats_.solve_calls;
  if (obs_ != nullptr) obs_->metrics.add(m_solves_);
  if (cache_valid_ && cached_epoch_ == epoch_) {
    ++stats_.cache_hits;
    if (obs_ != nullptr) obs_->metrics.add(m_cache_hits_);
    return rates_;
  }
  ++stats_.cache_misses;
  if (obs_ != nullptr) obs_->metrics.add(m_cache_misses_);
  solve_uncached();
  cache_valid_ = true;
  cached_epoch_ = epoch_;
  return rates_;
}

void FlowSolver::solve_uncached() const {
  obs::ScopedTimer timer(obs_ != nullptr ? &obs_->metrics : nullptr,
                         m_solve_us_);
#ifndef NDEBUG
  {
    // Live-flow accounting: the insertion-order list, the live counter
    // and the free-list must agree before every real solve.
    std::size_t walked = 0;
    for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
      assert(flows_[f].alive);
      ++walked;
    }
    assert(walked == live_flows_);
    assert(live_flows_ + free_slots_.size() == flows_.size());
  }
#endif

  ensure_size(rates_, flows_.size(), stats_.scratch_grows);
  std::fill(rates_.begin(), rates_.end(), 0.0);
  if (live_flows_ == 0) return;

  SolveScratch& s = scratch_;
  s.rounds = 0;
  s.flows_scanned = 0;
  s.resource_touches = 0;
  s.scratch_grows = 0;
  ensure_size(s.weight, resources_.size(), s.scratch_grows);
  ensure_size(s.residual, resources_.size(), s.scratch_grows);
  ensure_size(s.touch_stamp, resources_.size(), s.scratch_grows);
  ensure_size(s.cand_stamp, flows_.size(), s.scratch_grows);
  if (s.touched.capacity() < resources_.size()) {
    ++s.scratch_grows;
    s.touched.reserve(resources_.size());
  }
  if (s.worklist.capacity() < live_flows_) {
    ++s.scratch_grows;
    s.worklist.reserve(live_flows_);
  }

  // One span holding every live flow in insertion order (== the old
  // ascending-id order): solve_span then reproduces the historical
  // floating-point operation sequence exactly.
  s.worklist.clear();
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
    s.worklist.push_back(f);
  }
  solve_span(s.worklist.data(), s.worklist.size());

  stats_.rounds += s.rounds;
  stats_.flows_scanned += s.flows_scanned;
  stats_.resource_touches += s.resource_touches;
  stats_.scratch_grows += s.scratch_grows;
  if (obs_ != nullptr) {
    obs_->metrics.add(m_rounds_, static_cast<double>(s.rounds));
    obs_->metrics.observe(m_rounds_hist_, static_cast<double>(s.rounds));
    obs_->metrics.add(m_flows_scanned_,
                      static_cast<double>(s.flows_scanned));
    obs_->metrics.add(m_touches_,
                      static_cast<double>(s.resource_touches));
  }
}

void FlowSolver::solve_span(FlowId* flows, std::size_t n) const {
  if (n == 0) return;
  SolveScratch& s = scratch_;

  // Build per-resource weights walking the span in order, initializing
  // weight/residual lazily at first touch via the stamp so untouched
  // resources cost nothing.
  const std::uint64_t touch_token = ++s.stamp;
  s.touched.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const FlowId f = flows[k];
    rates_[f] = 0.0;
    const FlowMeta& m = flows_[f];
    for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
      const ResourceId r = usage_resource_[i];
      if (s.touch_stamp[r] != touch_token) {
        s.touch_stamp[r] = touch_token;
        s.weight[r] = 0.0;
        s.residual[r] = resources_[r].capacity;
        s.touched.push_back(r);
      }
      s.weight[r] += usage_weight_[i];
    }
  }

  std::size_t unfrozen = n;
  while (unfrozen > 0) {
    ++s.rounds;
    // Largest uniform rate increment delta all unfrozen flows can take.
    // min() over the touched set only: every other resource has exactly
    // zero weight, so the old full-resource scan excluded it too.
    double delta = std::numeric_limits<double>::infinity();
    for (ResourceId r : s.touched) {
      if (s.weight[r] > kWeightEps && std::isfinite(s.residual[r])) {
        delta =
            std::min(delta, std::max(s.residual[r], 0.0) / s.weight[r]);
      }
    }
    for (std::size_t k = 0; k < unfrozen; ++k) {
      const FlowId f = flows[k];
      if (std::isfinite(flows_[f].cap)) {
        delta = std::min(delta, flows_[f].cap - rates_[f]);
      }
    }
    assert(std::isfinite(delta) &&
           "every flow needs a finite cap or a finite resource in its usages");
    delta = std::max(delta, 0.0);

    for (std::size_t k = 0; k < unfrozen; ++k) {
      const FlowId f = flows[k];
      const FlowMeta& m = flows_[f];
      rates_[f] += delta;
      for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
        s.residual[usage_resource_[i]] -= delta * usage_weight_[i];
      }
      s.resource_touches += m.count;
    }
    s.flows_scanned += unfrozen;

    // Saturation pass: instead of materializing a saturated[] bitmap and
    // rescanning every unfrozen flow's usages, mark the flows incident
    // to each saturated resource as freeze candidates (the incidence
    // list is exactly the set of flows the old scan would have matched).
    const std::uint64_t round_token = ++s.stamp;
    for (ResourceId r : s.touched) {
      if (s.weight[r] > kWeightEps && std::isfinite(s.residual[r]) &&
          s.residual[r] <= kEps * std::max(1.0, resources_[r].capacity)) {
        for (const IncidenceEntry& e : incidence_[r]) {
          s.cand_stamp[e.flow] = round_token;
        }
      }
    }

    // Freeze pass, compacting the span in place. Processing stays in
    // insertion order so the weight-release subtractions happen in the
    // same floating-point order as the old per-id scan.
    std::size_t out = 0;
    bool any_frozen_this_round = false;
    for (std::size_t k = 0; k < unfrozen; ++k) {
      const FlowId f = flows[k];
      const FlowMeta& m = flows_[f];
      const bool freeze =
          (std::isfinite(m.cap) && rates_[f] >= m.cap - kEps) ||
          s.cand_stamp[f] == round_token;
      if (freeze) {
        any_frozen_this_round = true;
        for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
          const ResourceId r = usage_resource_[i];
          s.weight[r] -= usage_weight_[i];
          if (s.weight[r] < kWeightEps) s.weight[r] = 0.0;
        }
      } else {
        flows[out++] = f;
      }
    }
    // Progress guarantee: a positive delta saturates something; a zero
    // delta means a cap/resource was already tight and those flows froze.
    if (!any_frozen_this_round) {
      assert(false && "flow solver failed to make progress");
      break;
    }
    unfrozen = out;
  }
}

Gbps FlowSolver::aggregate_rate() const {
  const std::vector<Gbps>& rates = solve();
  Gbps sum = 0.0;
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) sum += rates[f];
  return sum;
}

double FlowSolver::utilization(ResourceId id) const {
  assert(id < resources_.size());
  const Resource& res = resources_[id];
  if (!std::isfinite(res.capacity) || res.capacity <= 0.0) {
    return 0.0;
  }
  const std::vector<Gbps>& rates = solve();
  // Walks flow usage spans in insertion order (not the unordered
  // incidence list) so the sum accumulates in the historical order.
  double used = 0.0;
  for (FlowId f = head_; f != kNoFlow; f = flows_[f].next) {
    const FlowMeta& m = flows_[f];
    for (std::size_t i = m.begin; i < m.begin + m.count; ++i) {
      if (usage_resource_[i] == id) used += rates[f] * usage_weight_[i];
    }
  }
  return used / res.capacity;
}

}  // namespace numaio::sim
