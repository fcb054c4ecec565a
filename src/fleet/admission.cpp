#include "fleet/admission.h"

#include <algorithm>
#include <cassert>

namespace numaio::fleet {

void TokenBucket::refill(sim::Ns now) {
  if (now <= last_) return;
  tokens_ = std::min(burst_, tokens_ + rate_per_s_ * (now - last_) / 1e9);
  last_ = now;
}

bool TokenBucket::try_take(sim::Ns now) {
  refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::tokens(sim::Ns now) {
  refill(now);
  return tokens_;
}

BoundedQueue::PushResult BoundedQueue::push(QueueItem item) {
  PushResult result;
  if (depth_ >= max_depth_) {
    assert(depth_ > 0);
    result.shed = true;
    // The back of the lowest level is the latest arrival at the lowest
    // priority. An incoming item that does not outrank it would be that
    // latest arrival itself, so it is the one shed.
    if (item.priority <= levels_.begin()->first) {
      result.victim = item;
      return result;
    }
    result.victim = pop_victim();
  }
  levels_[item.priority].push_back(item);
  ++depth_;
  result.accepted = true;
  return result;
}

QueueItem BoundedQueue::pop() {
  assert(depth_ > 0);
  // Highest priority level; FIFO order within it makes front the earliest.
  auto it = std::prev(levels_.end());
  const QueueItem item = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) levels_.erase(it);
  --depth_;
  return item;
}

QueueItem BoundedQueue::pop_victim() {
  auto it = levels_.begin();
  const QueueItem item = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) levels_.erase(it);
  --depth_;
  return item;
}

bool BoundedQueue::remove(int request) {
  for (auto it = levels_.begin(); it != levels_.end(); ++it) {
    std::deque<QueueItem>& level = it->second;
    for (auto e = level.begin(); e != level.end(); ++e) {
      if (e->request != request) continue;
      level.erase(e);
      if (level.empty()) levels_.erase(it);
      --depth_;
      return true;
    }
  }
  return false;
}

}  // namespace numaio::fleet
