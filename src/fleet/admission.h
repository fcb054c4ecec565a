// Admission control primitives for the fleet serving core: per-tenant
// token buckets and a bounded priority queue that sheds lowest-priority
// work instead of growing without bound.
//
// The paper's Eq. 1 predicts what an accepted multi-user load will get;
// admission control decides what gets accepted in the first place. Both
// primitives are pure simulated-time state machines (no wall clock), so
// fleet runs stay deterministic. The queue keeps its entries indexed by
// priority level (one FIFO per level), so push/pop/shed are O(log levels)
// instead of the O(depth) scans the first fleet cut paid — at six-figure
// offered rps with a full queue, those scans were the hottest loop in the
// whole fleet (ISSUE 10).
#pragma once

#include <deque>
#include <map>

#include "simcore/units.h"

namespace numaio::fleet {

/// Classic token bucket in simulated time: `rate_per_s` tokens accrue per
/// simulated second up to `burst`; try_take spends one. Starts full.
class TokenBucket {
 public:
  TokenBucket(double rate_per_s, double burst)
      : rate_per_s_(rate_per_s), burst_(burst), tokens_(burst) {}

  /// Refills for the elapsed time, then takes one token if available.
  bool try_take(sim::Ns now);

  /// Token level after refilling to `now` (does not spend).
  double tokens(sim::Ns now);

 private:
  void refill(sim::Ns now);

  double rate_per_s_;
  double burst_;
  double tokens_;
  sim::Ns last_ = 0.0;
};

/// One queued admission ticket. `request` is an opaque caller-side id.
struct QueueItem {
  int request = -1;
  int priority = 0;  ///< Higher survives longer; shedding starts lowest.
};

/// Fixed-depth priority queue with lowest-priority-first eviction.
///
/// pop() serves the highest priority, FIFO within a priority level. When
/// a push would exceed `max_depth`, the queue sheds exactly one item: the
/// latest-arrived entry of the lowest priority present — which is the
/// incoming item itself unless it outranks the current minimum. The
/// invariant the fleet contract rests on: a shed item's priority is <=
/// every priority still queued at that instant, and depth() never exceeds
/// max_depth.
class BoundedQueue {
 public:
  explicit BoundedQueue(int max_depth) : max_depth_(max_depth) {}

  struct PushResult {
    bool accepted = false;  ///< The incoming item is now queued.
    bool shed = false;      ///< One item was shed to make room.
    QueueItem victim{};     ///< The shed item (may be the incoming one).
  };
  PushResult push(QueueItem item);

  /// Highest-priority, earliest-arrival item. Queue must be non-empty.
  QueueItem pop();

  /// Removes the entry for `request` (e.g. its deadline passed while
  /// queued). O(depth) worst case — removal is the rare path. Returns
  /// false when not present.
  bool remove(int request);

  bool empty() const { return depth_ == 0; }
  int depth() const { return depth_; }
  int max_depth() const { return max_depth_; }

 private:
  /// Removes the back of the lowest level: the shed victim.
  QueueItem pop_victim();

  int max_depth_;
  int depth_ = 0;
  /// priority -> arrival-ordered FIFO. Pop takes the front of the
  /// highest level, shed the back of the lowest.
  std::map<int, std::deque<QueueItem>> levels_;
};

}  // namespace numaio::fleet
