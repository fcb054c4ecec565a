// The discrete-event engine: a clock, a heap of control closures and a
// heap of completion alarms (DESIGN.md §13).
//
// A fleet of hosts mostly schedules one kind of event: "host h's next
// flow completion is due at t", superseded whenever the host's flow set
// changes. The engine keeps those as plain-data alarms on their own
// min-heap, keyed by (at, host, seq), and everything else as closures on
// a second heap. It drains them in rounds:
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
//    further closures, including the next link of a chain, and cancel
//    pending ones through the handle schedule_at returned. A cancelled
//    closure leaves the heap at once and never fires; the others keep
//    their (at, seq) order.
//
// Per instant, alarms drain first, then the merge hook, then control
// events. An alarm that the hook or a control event schedules at the
// current instant fires in a new round at that instant, before any
// control event still due then.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/units.h"

namespace numaio::sim {

class AlarmEngine {
 public:
  using Callback = std::function<void()>;

  /// One completion alarm. `gen` is caller-defined (the fleet uses it as
  /// a generation guard against superseded alarms).
  struct Alarm {
    Ns at = 0.0;
    int host = 0;
    std::uint64_t seq = 0;
    std::uint64_t gen = 0;
  };

  /// Names one scheduled control closure for cancel(). A closure's slot
  /// is reused once it fires or is cancelled, and `gen` tells the new
  /// occupant from the old one; a default handle names nothing.
  struct Handle {
    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;
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

  /// Removes a pending control closure in O(log n): it never fires. A
  /// no-op for a closure that already fired or was cancelled (a closure
  /// cancelling its own handle included) and for a default handle.
  void cancel(Handle handle);

  /// Schedules an alarm for `host` at `at` (>= now()). The alarm
  /// handler may only schedule for the host it is handling.
  void schedule_alarm(int host, Ns at, std::uint64_t gen);

  /// Runs alarm rounds and control events until both heaps drain.
  Ns run();

  /// Runs everything with timestamp <= `until`, then advances the clock
  /// to `until` if it has not passed it.
  Ns run_until(Ns until);

  std::size_t pending() const { return control_.size() + alarms_.size(); }
  Ns next_event_time() const;

  /// Alarms fired over the engine's life.
  long long alarms_fired() const { return alarms_fired_; }
  /// Alarm rounds executed (each ends in one merge-hook call).
  long long rounds() const { return rounds_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// A control heap entry; its closure waits in slots_[slot].
  struct ControlEntry {
    Ns at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// One control closure and the heap position of its entry.
  struct Slot {
    Callback fn;
    std::uint32_t pos = 0;
    std::uint32_t gen = 0;  ///< Bumped when the closure fires or is cancelled.
  };

  /// Fires every alarm due at `t`, then runs the merge hook.
  void run_round(Ns t);

  /// Places `entry` at heap position `i` or above / below it, keeping
  /// every moved entry's slot position current.
  void sift_up(std::size_t i, ControlEntry entry);
  void sift_down(std::size_t i, ControlEntry entry);
  /// Removes the control entry at heap position `i` and frees its slot.
  void erase_control(std::size_t i);

  Ns now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool in_round_ = false;
  long long alarms_fired_ = 0;
  long long rounds_ = 0;
  std::vector<ControlEntry> control_;  ///< Indexed min-heap on (at, seq).
  std::vector<Slot> slots_;            ///< Closure arena for control_.
  std::vector<std::uint32_t> free_slots_;
  std::vector<Alarm> alarms_;          ///< Min-heap on (at, host, seq).
  AlarmHandler alarm_handler_;
  MergeHook merge_hook_;
};

}  // namespace numaio::sim
