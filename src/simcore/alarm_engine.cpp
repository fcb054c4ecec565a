#include "simcore/alarm_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace numaio::sim {

namespace {
template <typename E>
bool earlier(const E& a, const E& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.host != b.host) return a.host < b.host;
  return a.seq < b.seq;
}
}  // namespace

void AlarmEngine::set_alarm_handler(AlarmHandler handler) {
  alarm_handler_ = std::move(handler);
}

void AlarmEngine::set_merge_hook(MergeHook hook) {
  merge_hook_ = std::move(hook);
}

AlarmEngine::Handle AlarmEngine::schedule_at(Ns at, Callback fn) {
  assert(!in_round_ && "the alarm handler must not schedule control");
  const Handle handle = push(at, kControl);
  slots_[handle.slot].fn = std::move(fn);
  return handle;
}

AlarmEngine::Handle AlarmEngine::schedule_alarm(int host, Ns at) {
  assert(host >= 0 && host < kControl);
  return push(at, host);
}

AlarmEngine::Handle AlarmEngine::push(Ns at, int host) {
  assert(at >= now_ && "cannot schedule into the past");
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, slot, host});
  return Handle{slot, slots_[slot].gen};
}

void AlarmEngine::cancel(Handle handle) {
  if (handle.slot >= slots_.size()) return;
  Slot& slot = slots_[handle.slot];
  if (slot.gen != handle.gen) return;  // fired, cancelled or reused
  erase(slot.pos);
}

void AlarmEngine::sift_up(std::size_t i, Entry entry) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(i);
}

void AlarmEngine::sift_down(std::size_t i, Entry entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!earlier(heap_[child], entry)) break;
    heap_[i] = heap_[child];
    slots_[heap_[i].slot].pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(i);
}

void AlarmEngine::erase(std::size_t i) {
  const std::uint32_t slot = heap_[i].slot;
  slots_[slot].fn = nullptr;
  ++slots_[slot].gen;  // every handle to this entry is now stale
  free_slots_.push_back(slot);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  // Refill the hole with the last entry, moving it whichever way the
  // heap order needs.
  if (i > 0 && earlier(last, heap_[(i - 1) / 2])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void AlarmEngine::run_round(Ns t) {
  assert(alarm_handler_ && "alarms scheduled without a handler");
  in_round_ = true;
  // Rounds start at the earliest alarm, and alarms sort before closures
  // at an instant, so the round's alarms lead the heap in (host, seq)
  // order.
  while (!heap_.empty() && heap_.front().at <= t &&
         heap_.front().host != kControl) {
    const Entry front = heap_.front();
    const Handle handle{front.slot, slots_[front.slot].gen};
    erase(0);
    ++alarms_fired_;
    alarm_handler_(Alarm{front.at, front.host, handle});
  }
  in_round_ = false;
  ++rounds_;
  if (merge_hook_) merge_hook_(t);
}

Ns AlarmEngine::run_until(Ns until) {
  while (!heap_.empty()) {
    const Entry front = heap_.front();
    if (front.at > until || front.at == kUnlimited) break;
    now_ = std::max(now_, front.at);
    if (front.host != kControl) {
      // Alarms first at every instant; the merge hook may schedule more
      // work at this instant, picked up by the next iteration.
      run_round(front.at);
      continue;
    }
    // Move the closure out and free its slot before calling it: it may
    // schedule (growing the arena) or cancel, its own handle included.
    Callback fn = std::move(slots_[front.slot].fn);
    erase(0);
    fn();
  }
  if (until != kUnlimited) now_ = std::max(now_, until);
  return now_;
}

Ns AlarmEngine::run() { return run_until(kUnlimited); }

}  // namespace numaio::sim
