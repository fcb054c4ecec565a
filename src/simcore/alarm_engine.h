// The discrete-event engine: a clock and one heap of completion alarms
// and control closures (DESIGN.md §13).
//
// A fleet of hosts mostly schedules one kind of event: "host h's next
// flow completion is due at t", superseded whenever the host's flow set
// changes. The engine keeps those as plain-data alarms and everything
// else as closures, on one indexed min-heap keyed by (at, alarms before
// closures, host, seq). Either kind can be cancelled through the handle
// that scheduled it: it leaves the heap at once and never fires, and the
// others keep their order. The engine drains the heap in rounds:
//
//  * Alarms — every alarm due at the current instant fires, in (host,
//    seq) order, through the alarm handler. The handler may only touch
//    its host's state and schedule alarms for its own host; it must not
//    schedule control events or emit traces or metrics.
//  * Merge hook — runs once after each alarm round, at the round's
//    instant. It is where alarm results become globally visible (commit
//    them in host order), and it may schedule alarms and control events.
//  * Control events — closures, keyed by (at, seq): one fires at a time,
//    same-instant closures in scheduling order. A closure may schedule
//    further closures, including the next link of a chain.
//
// Per instant, alarms drain first, then the merge hook, then control
// events. An alarm that the hook or a control event schedules at the
// current instant fires in a new round at that instant, before any
// control event still due then. An instant whose alarms were all
// cancelled runs no round.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "simcore/units.h"

namespace numaio::sim {

class AlarmEngine {
 public:
  using Callback = std::function<void()>;

  /// Names one scheduled alarm or control closure for cancel(). An
  /// entry's slot is reused once it fires or is cancelled, and `gen`
  /// tells the new occupant from the old one; a default handle names
  /// nothing.
  struct Handle {
    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;
    bool operator==(const Handle&) const = default;
  };

  /// One firing completion alarm, with the handle that scheduled it.
  struct Alarm {
    Ns at = 0.0;
    int host = 0;
    Handle handle;
  };

  using AlarmHandler = std::function<void(const Alarm&)>;

  /// Runs after each alarm round, at the round's instant.
  using MergeHook = std::function<void(Ns at)>;

  void set_alarm_handler(AlarmHandler handler);
  void set_merge_hook(MergeHook hook);

  Ns now() const { return now_; }

  /// Schedules a control closure at absolute time `at` (>= now()). Not
  /// from the alarm handler.
  Handle schedule_at(Ns at, Callback fn);

  /// Schedules an alarm for `host` (>= 0) at `at` (>= now()). The alarm
  /// handler may only schedule for the host it is handling.
  Handle schedule_alarm(int host, Ns at);

  /// Removes a pending alarm or closure in O(log n): it never fires. A
  /// no-op for one that already fired or was cancelled (a closure
  /// cancelling its own handle included) and for a default handle.
  void cancel(Handle handle);

  /// Runs alarm rounds and control events until the heap drains.
  Ns run();

  /// Runs everything with timestamp <= `until`, then advances the clock
  /// to `until` if it has not passed it.
  Ns run_until(Ns until);

  std::size_t pending() const { return heap_.size(); }
  Ns next_event_time() const {
    return heap_.empty() ? kUnlimited : heap_.front().at;
  }

  /// Alarms fired over the engine's life.
  long long alarms_fired() const { return alarms_fired_; }
  /// Alarm rounds executed (each ends in one merge-hook call).
  long long rounds() const { return rounds_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// A closure's host: after every alarm host, so alarms sort first.
  static constexpr int kControl = std::numeric_limits<int>::max();

  /// A heap entry; a closure waits in slots_[slot].
  struct Entry {
    Ns at;
    std::uint64_t seq;
    std::uint32_t slot;
    int host;  ///< The alarm's host, or kControl for a closure.
  };

  /// One entry's closure (empty for an alarm) and its heap position.
  struct Slot {
    Callback fn;
    std::uint32_t pos = 0;
    std::uint32_t gen = 0;  ///< Bumped when the entry fires or is cancelled.
  };

  /// Takes a free slot and places its entry; the caller fills the slot.
  Handle push(Ns at, int host);
  /// Fires every alarm due at `t`, then runs the merge hook.
  void run_round(Ns t);

  /// Places `entry` at heap position `i` or above / below it, keeping
  /// every moved entry's slot position current.
  void sift_up(std::size_t i, Entry entry);
  void sift_down(std::size_t i, Entry entry);
  /// Removes the entry at heap position `i` and frees its slot.
  void erase(std::size_t i);

  Ns now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool in_round_ = false;
  long long alarms_fired_ = 0;
  long long rounds_ = 0;
  std::vector<Entry> heap_;  ///< Indexed min-heap on (at, host, seq).
  std::vector<Slot> slots_;  ///< Arena behind heap_'s entries.
  std::vector<std::uint32_t> free_slots_;
  AlarmHandler alarm_handler_;
  MergeHook merge_hook_;
};

}  // namespace numaio::sim
