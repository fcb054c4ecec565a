#include "simcore/alarm_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace numaio::sim {

namespace {
template <typename E>
bool earlier(const E& a, const E& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

// std::push_heap/pop_heap build a max-heap; invert the order for a min-heap.
struct LaterAlarm {
  bool operator()(const AlarmEngine::Alarm& a,
                  const AlarmEngine::Alarm& b) const {
    if (a.at != b.at) return a.at > b.at;
    if (a.host != b.host) return a.host > b.host;
    return a.seq > b.seq;
  }
};
}  // namespace

void AlarmEngine::set_alarm_handler(AlarmHandler handler) {
  alarm_handler_ = std::move(handler);
}

void AlarmEngine::set_merge_hook(MergeHook hook) {
  merge_hook_ = std::move(hook);
}

AlarmEngine::Handle AlarmEngine::schedule_at(Ns at, Callback fn) {
  assert(!in_round_ && "the alarm handler must not schedule control");
  assert(at >= now_ && "cannot schedule into the past");
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  control_.emplace_back();
  sift_up(control_.size() - 1, ControlEntry{at, next_seq_++, slot});
  return Handle{slot, slots_[slot].gen};
}

void AlarmEngine::cancel(Handle handle) {
  if (handle.slot >= slots_.size()) return;
  Slot& slot = slots_[handle.slot];
  if (slot.gen != handle.gen) return;  // fired, cancelled or reused
  erase_control(slot.pos);
}

void AlarmEngine::sift_up(std::size_t i, ControlEntry entry) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, control_[parent])) break;
    control_[i] = control_[parent];
    slots_[control_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  control_[i] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(i);
}

void AlarmEngine::sift_down(std::size_t i, ControlEntry entry) {
  const std::size_t n = control_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(control_[child + 1], control_[child])) {
      ++child;
    }
    if (!earlier(control_[child], entry)) break;
    control_[i] = control_[child];
    slots_[control_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  control_[i] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(i);
}

void AlarmEngine::erase_control(std::size_t i) {
  const std::uint32_t slot = control_[i].slot;
  slots_[slot].fn = nullptr;
  ++slots_[slot].gen;  // every handle to this closure is now stale
  free_slots_.push_back(slot);
  const ControlEntry last = control_.back();
  control_.pop_back();
  if (i == control_.size()) return;
  // Refill the hole with the last entry, moving it whichever way the
  // heap order needs.
  if (i > 0 && earlier(last, control_[(i - 1) / 2])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void AlarmEngine::schedule_alarm(int host, Ns at, std::uint64_t gen) {
  assert(at >= now_ && "cannot schedule into the past");
  alarms_.push_back(Alarm{at, host, next_seq_++, gen});
  std::push_heap(alarms_.begin(), alarms_.end(), LaterAlarm{});
}

Ns AlarmEngine::next_event_time() const {
  const Ns tc = control_.empty() ? kUnlimited : control_.front().at;
  const Ns ta = alarms_.empty() ? kUnlimited : alarms_.front().at;
  return std::min(tc, ta);
}

void AlarmEngine::run_round(Ns t) {
  assert(alarm_handler_ && "alarms scheduled without a handler");
  in_round_ = true;
  // Rounds start at the earliest alarm, so every due alarm sits exactly
  // at `t` and the heap hands them out in (host, seq) order.
  while (!alarms_.empty() && alarms_.front().at <= t) {
    std::pop_heap(alarms_.begin(), alarms_.end(), LaterAlarm{});
    const Alarm alarm = alarms_.back();
    alarms_.pop_back();
    ++alarms_fired_;
    alarm_handler_(alarm);
  }
  in_round_ = false;
  ++rounds_;
  if (merge_hook_) merge_hook_(t);
}

Ns AlarmEngine::run_until(Ns until) {
  for (;;) {
    const Ns tc = control_.empty() ? kUnlimited : control_.front().at;
    const Ns ta = alarms_.empty() ? kUnlimited : alarms_.front().at;
    const Ns t = std::min(tc, ta);
    if (t > until || t == kUnlimited) break;
    now_ = std::max(now_, t);
    if (ta <= tc) {
      // Alarms first at every instant; the merge hook may schedule more
      // work at `t`, picked up by the next iteration.
      run_round(t);
      continue;
    }
    // Move the closure out and free its slot before calling it: it may
    // schedule (growing the arena) or cancel, its own handle included.
    Callback fn = std::move(slots_[control_.front().slot].fn);
    erase_control(0);
    fn();
  }
  if (until != kUnlimited) now_ = std::max(now_, until);
  return now_;
}

Ns AlarmEngine::run() { return run_until(kUnlimited); }

}  // namespace numaio::sim
