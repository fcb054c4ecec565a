#include "obs/analysis.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace numaio::obs {

namespace {

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

// ---------------------------------------------------------------------
// Critical-path skeleton: what a span hands to its parent when it closes.

/// Dominance key of a closed span. "a dominates b": later end time, then
/// longer duration, then the earlier record. Untimed spans (t1 = -1)
/// lose to any timed one. A strict total order, so the fold's winner is
/// independent of the order children close in.
struct PathKey {
  double t1 = -1.0;
  double dur = 0.0;
  EventId id = 0;
};

bool dominates(const PathKey& a, const PathKey& b) {
  if (a.t1 != b.t1) return a.t1 > b.t1;
  if (a.dur != b.dur) return a.dur > b.dur;
  return a.id < b.id;
}

/// The dominant descent below (and including) one closed span: its path
/// steps root-first, plus the leaf's best cause-citing instant. Chains
/// propagate upward when spans close; only the dominant child's chain
/// survives at each level, so live memory is one chain per *open* span.
struct Chain {
  std::vector<CriticalPathStep> steps;
  bool has_pivot = false;
  Event pivot;            ///< Leaf's latest instant citing a cause.
  EventId leaf_span = 0;  ///< Span the pivot was recorded in.
};

/// Live state per open span during pass 1 — everything the fold needs,
/// never the span's records.
struct OpenSpan {
  std::string name;
  std::string detail;
  EventId parent = 0;
  double t0 = -1.0;
  int node_a = -1;
  int node_b = -1;
  char dir = '-';
  long long begin_bytes = -1;
  bool has_pivot = false;
  Event pivot;
  bool has_child = false;
  PathKey child_key;
  Chain child_chain;
};

/// Per (name, dir) transfer-group reference established in pass 1: the
/// best observed rate and the fastest duration define the uncontended
/// ideal that pass 2 attributes stall against.
struct GroupRef {
  double ref_rate = 0.0;  ///< Bytes per simulated ns, best in group.
  double min_dur = 0.0;
};

// ---------------------------------------------------------------------
// Fault/retry audit: a single-pass fold, part of analyze_stream()'s
// first pass.

class FaultAccumulator final : public TraceVisitor {
 public:
  void record(const Event& e) override {
    if (e.name == "fault.transition") {
      ++audit_.transitions;
      transitions_[e.id] = {e.detail + ' ' + e.outcome + " (id " +
                               std::to_string(e.id) + ')',
                           0};
    }
    if (e.kind == 'I' && ends_with(e.name, ".retry")) ++audit_.retries;
    if (e.kind == 'I' && ends_with(e.name, ".abort")) ++audit_.aborts;
    if (e.kind == 'E' && e.outcome == "aborted") ++audit_.aborts;
    if (e.kind == 'I' && e.parent != 0) {
      const auto it = transitions_.find(e.parent);
      if (it != transitions_.end()) {
        ++audit_.caused;
        ++it->second.second;
      }
    }
  }

  FaultAudit finish() {
    for (const auto& [id, labelled] : transitions_) {
      audit_.by_fault.push_back(labelled);
    }
    std::sort(audit_.by_fault.begin(), audit_.by_fault.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    return std::move(audit_);
  }

 private:
  FaultAudit audit_;
  /// id -> (label, consequence count); one entry per fault transition.
  std::map<EventId, std::pair<std::string, int>> transitions_;
};

// ---------------------------------------------------------------------
// Pass 1: span-kind aggregates, fault audit, contention group references
// and the critical-path skeleton, holding only open spans.

class SkeletonPass final : public TraceVisitor {
 public:
  void record(const Event& e) override {
    ++num_records_;
    if (e.t_sim >= 0.0) {
      if (first_ns_ < 0.0 || e.t_sim < first_ns_) first_ns_ = e.t_sim;
      if (e.t_sim > last_ns_) last_ns_ = e.t_sim;
    }
    faults_.record(e);
    if (e.kind == 'B') {
      OpenSpan s;
      s.name = e.name;
      s.detail = e.detail;
      s.parent = e.parent;
      s.t0 = e.t_sim;
      s.node_a = e.node_a;
      s.node_b = e.node_b;
      s.dir = e.dir;
      s.begin_bytes = e.bytes;
      open_.emplace(e.id, std::move(s));
      peak_open_ = std::max(peak_open_,
                            static_cast<std::uint64_t>(open_.size()));
    } else if (e.kind == 'E') {
      const auto it = open_.find(e.span);
      if (it == open_.end()) return;  // end without a begin: skip
      close(it->first, it->second, &e);
      open_.erase(it);
    } else if (e.span != 0 && e.parent != 0) {
      // Candidate cause pivot for its enclosing span: latest simulated
      // time wins, ties to the earliest record.
      const auto it = open_.find(e.span);
      if (it == open_.end()) return;
      OpenSpan& s = it->second;
      if (!s.has_pivot || e.t_sim > s.pivot.t_sim ||
          (e.t_sim == s.pivot.t_sim && e.id < s.pivot.id)) {
        s.has_pivot = true;
        s.pivot = e;
      }
    }
  }

  /// Folds still-open spans (unclosed capture tails) and moves the
  /// aggregates into `out`. Children close before parents: a child's id
  /// is always greater than its parent's, so walking the map backwards
  /// preserves the bottom-up chain hand-off.
  void finish(TraceAnalysis& out) {
    while (!open_.empty()) {
      const auto it = std::prev(open_.end());
      close(it->first, it->second, nullptr);
      open_.erase(it);
    }
    out.num_records = num_records_;
    out.first_ns = first_ns_;
    out.last_ns = last_ns_;
    out.peak_open_spans = peak_open_;
    for (auto& [name, k] : kinds_) {
      for (const auto& [outcome, n] : kind_outcomes_[name]) {
        k.outcomes.emplace_back(outcome, n);
      }
      out.span_kinds.push_back(std::move(k));
    }
    out.faults = faults_.finish();
    if (has_root_) {
      out.critical_path_ns = root_key_.dur;
      out.critical_path = std::move(root_chain_.steps);
    }
  }

  const std::map<std::string, GroupRef>& groups() const { return groups_; }
  bool has_pivot() const { return has_root_ && root_chain_.has_pivot; }
  const Event& pivot() const { return root_chain_.pivot; }
  EventId leaf_span() const { return root_chain_.leaf_span; }

 private:
  void close(EventId id, OpenSpan& s, const Event* end) {
    const double t1 = end != nullptr ? end->t_sim : -1.0;
    const double dur = s.t0 >= 0.0 && t1 >= s.t0 ? t1 - s.t0 : 0.0;

    SpanKindStats& k = kinds_[s.name];
    k.name = s.name;
    ++k.count;
    k.total_ns += dur;
    k.max_ns = std::max(k.max_ns, dur);
    if (end == nullptr) {
      ++k.unclosed;
      ++kind_outcomes_[s.name]["(open)"];
    } else {
      if (end->bytes > 0) k.bytes += end->bytes;
      ++kind_outcomes_[s.name][end->outcome];
    }

    // Transfer spans feed their group's uncontended reference.
    if (s.node_a >= 0 && s.node_b >= 0 && dur > 0.0) {
      long long bytes = -1;
      if (end != nullptr && end->bytes > 0) bytes = end->bytes;
      else if (s.begin_bytes > 0) bytes = s.begin_bytes;
      GroupRef& g = groups_[s.name + '|' + s.dir];
      if (bytes > 0) {
        g.ref_rate =
            std::max(g.ref_rate, static_cast<double>(bytes) / dur);
      }
      if (g.min_dur == 0.0 || dur < g.min_dur) g.min_dur = dur;
    }

    // This span's step on top of its dominant child's chain.
    Chain chain;
    CriticalPathStep step;
    step.id = id;
    step.name = s.name;
    step.outcome = end != nullptr ? end->outcome : "(open)";
    step.detail = s.detail;
    step.start_ns = s.t0;
    step.end_ns = t1;
    step.self_ns =
        std::max(0.0, dur - (s.has_child ? s.child_key.dur : 0.0));
    chain.steps.push_back(std::move(step));
    if (s.has_child) {
      chain.steps.insert(
          chain.steps.end(),
          std::make_move_iterator(s.child_chain.steps.begin()),
          std::make_move_iterator(s.child_chain.steps.end()));
      chain.has_pivot = s.child_chain.has_pivot;
      chain.pivot = std::move(s.child_chain.pivot);
      chain.leaf_span = s.child_chain.leaf_span;
    } else {
      chain.has_pivot = s.has_pivot;
      chain.pivot = std::move(s.pivot);
      chain.leaf_span = id;
    }

    // Hand the chain to the parent (still open: children close first),
    // or enter it in the root contest.
    const PathKey key{t1, dur, id};
    const auto parent_it =
        s.parent != 0 ? open_.find(s.parent) : open_.end();
    if (parent_it != open_.end()) {
      OpenSpan& p = parent_it->second;
      if (!p.has_child || dominates(key, p.child_key)) {
        p.has_child = true;
        p.child_key = key;
        p.child_chain = std::move(chain);
      }
    } else if (!has_root_ || dominates(key, root_key_)) {
      has_root_ = true;
      root_key_ = key;
      root_chain_ = std::move(chain);
    }
  }

  int num_records_ = 0;
  double first_ns_ = -1.0;
  double last_ns_ = -1.0;
  std::uint64_t peak_open_ = 0;
  std::map<EventId, OpenSpan> open_;
  std::map<std::string, SpanKindStats> kinds_;
  std::map<std::string, std::map<std::string, int>> kind_outcomes_;
  std::map<std::string, GroupRef> groups_;
  FaultAccumulator faults_;
  bool has_root_ = false;
  PathKey root_key_;
  Chain root_chain_;
};

// ---------------------------------------------------------------------
// Pass 2: contention attribution against the pass-1 group references,
// plus the leaf pivot's loose ends — its first cause link and, when the
// pivot is a scheduler migration, the earlier migrations of the same
// task so the whole chain lands on the path.

class ResolvePass final : public TraceVisitor {
 public:
  ResolvePass(const std::map<std::string, GroupRef>& groups, EventId wanted,
              EventId stitch_span, std::string stitch_detail,
              EventId stitch_before)
      : groups_(groups),
        wanted_(wanted),
        stitch_span_(stitch_span),
        stitch_detail_(std::move(stitch_detail)),
        stitch_before_(stitch_before) {}

  void record(const Event& e) override {
    if (wanted_ != 0 && e.id == wanted_) {
      found_ = e;
      has_found_ = true;
    }
    if (stitch_span_ != 0 && e.kind == 'I' && e.span == stitch_span_ &&
        e.id < stitch_before_ && e.name == "sched.migrate" &&
        e.detail == stitch_detail_) {
      migrates_.push_back(e);
    }
    if (e.kind == 'B') {
      if (e.node_a >= 0 && e.node_b >= 0) {
        open_.emplace(e.id, Xfer{e.name, e.dir, e.node_a, e.node_b, e.t_sim,
                                 e.bytes});
      }
      return;
    }
    if (e.kind != 'E') return;
    const auto it = open_.find(e.span);
    if (it == open_.end()) return;
    const Xfer x = it->second;
    open_.erase(it);
    const double dur = x.t0 >= 0.0 && e.t_sim >= x.t0 ? e.t_sim - x.t0 : 0.0;
    if (dur <= 0.0) return;
    long long bytes = -1;
    if (e.bytes > 0) bytes = e.bytes;
    else if (x.begin_bytes > 0) bytes = x.begin_bytes;
    const auto group = groups_.find(x.name + '|' + x.dir);
    if (group == groups_.end()) return;  // unmatched pass-1 state
    const GroupRef& g = group->second;
    const double ideal = bytes > 0 && g.ref_rate > 0.0
                             ? static_cast<double>(bytes) / g.ref_rate
                             : g.min_dur;
    ContentionCell& cell = cells_[{x.node_a, x.node_b}];
    cell.node_a = x.node_a;
    cell.node_b = x.node_b;
    ++cell.spans;
    if (bytes > 0) cell.bytes += bytes;
    cell.busy_ns += dur;
    cell.stall_ns += std::max(0.0, dur - ideal);
  }

  void finish(TraceAnalysis& out) {
    for (const auto& [pair, cell] : cells_) out.contention.push_back(cell);
    std::sort(out.contention.begin(), out.contention.end(),
              [](const ContentionCell& a, const ContentionCell& b) {
                if (a.stall_ns != b.stall_ns) return a.stall_ns > b.stall_ns;
                if (a.node_a != b.node_a) return a.node_a < b.node_a;
                return a.node_b < b.node_b;
              });
  }

  bool has_found() const { return has_found_; }
  const Event& found() const { return found_; }
  const std::vector<Event>& migrates() const { return migrates_; }

 private:
  struct Xfer {
    std::string name;
    char dir = '-';
    int node_a = -1;
    int node_b = -1;
    double t0 = -1.0;
    long long begin_bytes = -1;
  };

  const std::map<std::string, GroupRef>& groups_;
  EventId wanted_ = 0;
  EventId stitch_span_ = 0;
  std::string stitch_detail_;
  EventId stitch_before_ = 0;
  std::map<EventId, Xfer> open_;
  std::map<std::pair<int, int>, ContentionCell> cells_;
  bool has_found_ = false;
  Event found_;
  std::vector<Event> migrates_;
};

/// Passes 3..k: fetch one record by id (cause-chain links; ids strictly
/// decrease along real cause edges, so the pass count is the chain
/// length, not the record count).
class FindPass final : public TraceVisitor {
 public:
  explicit FindPass(EventId wanted) : wanted_(wanted) {}
  void record(const Event& e) override {
    if (e.id == wanted_) {
      found_ = e;
      has_found_ = true;
    }
  }
  bool has_found() const { return has_found_; }
  const Event& found() const { return found_; }

 private:
  EventId wanted_ = 0;
  bool has_found_ = false;
  Event found_;
};

CriticalPathStep instant_step(const Event& e) {
  CriticalPathStep step;
  step.id = e.id;
  step.name = e.name;
  step.outcome = e.outcome;
  step.detail = e.detail;
  step.start_ns = e.t_sim;
  return step;
}

}  // namespace

TraceAnalysis analyze_stream(RecordSource& source) {
  TraceAnalysis out;
  SkeletonPass skeleton;
  source.stream(skeleton);
  out.passes = 1;
  skeleton.finish(out);

  // What pass 2 owes us: contention attribution when transfer groups
  // exist, the pivot's first cause link, and — when the leaf pivot is a
  // scheduler migration — the earlier sched.migrate instants of the same
  // task, stitched into the path in record order.
  const bool has_pivot = skeleton.has_pivot();
  const Event pivot = has_pivot ? skeleton.pivot() : Event{};
  EventId wanted = 0;
  if (has_pivot && pivot.parent != 0 && pivot.parent < pivot.id) {
    wanted = pivot.parent;
  }
  const bool stitch = has_pivot && pivot.name == "sched.migrate";
  if (!skeleton.groups().empty() || wanted != 0 || stitch) {
    ResolvePass resolve(skeleton.groups(), wanted,
                        stitch ? skeleton.leaf_span() : 0, pivot.detail,
                        pivot.id);
    source.stream(resolve);
    ++out.passes;
    resolve.finish(out);
    if (has_pivot) {
      for (const Event& m : resolve.migrates()) {
        out.critical_path.push_back(instant_step(m));
      }
      out.critical_path.push_back(instant_step(pivot));
      // Walk the remaining cause chain, one pass per link; ids strictly
      // decrease along real cause edges, which also guards against
      // cycles in corrupt input.
      const Event* link =
          wanted != 0 && resolve.has_found() ? &resolve.found() : nullptr;
      Event held;
      while (link != nullptr) {
        out.critical_path.push_back(instant_step(*link));
        const EventId next =
            link->parent != 0 && link->parent < link->id ? link->parent : 0;
        if (next == 0) break;
        FindPass find(next);
        source.stream(find);
        ++out.passes;
        if (!find.has_found()) break;
        held = find.found();
        link = &held;
      }
    }
  } else if (has_pivot) {
    out.critical_path.push_back(instant_step(pivot));
  }
  return out;
}

TraceAnalysis analyze_trace(const std::vector<Event>& events) {
  VectorSource source(events);
  return analyze_stream(source);
}

}  // namespace numaio::obs
