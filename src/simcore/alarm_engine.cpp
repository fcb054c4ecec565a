#include "simcore/alarm_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace numaio::sim {

namespace {
// std::push_heap/pop_heap build a max-heap; invert the order for a min-heap.
struct LaterControl {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

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

void AlarmEngine::schedule_at(Ns at, Callback fn) {
  assert(!in_round_ && "the alarm handler must not schedule control");
  assert(at >= now_ && "cannot schedule into the past");
  control_.push_back(ControlEvent{at, next_seq_++, std::move(fn)});
  std::push_heap(control_.begin(), control_.end(), LaterControl{});
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
    std::pop_heap(control_.begin(), control_.end(), LaterControl{});
    ControlEvent ev = std::move(control_.back());
    control_.pop_back();
    ev.fn();
  }
  if (until != kUnlimited) now_ = std::max(now_, until);
  return now_;
}

Ns AlarmEngine::run() { return run_until(kUnlimited); }

}  // namespace numaio::sim
