// AlarmEngine tests (DESIGN.md §13): the idle engine, control-queue
// ordering and chaining, alarms before control at shared instants, the
// merge hook after each round, (host, seq) drain order within a round,
// same-host rescheduling from the handler, run_until clock semantics,
// cancelling alarms and control closures through their handles (stale,
// fired and default handles included), and randomized checks of the
// whole drain order, with alarm and closure cancels, against a sorted
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simcore/alarm_engine.h"
#include "simcore/rng.h"
#include "simcore/units.h"

namespace numaio::sim {
namespace {

TEST(AlarmEngineTest, ControlEventsFireInTimeThenFifoOrder) {
  AlarmEngine eng;
  std::vector<int> order;
  eng.schedule_at(20.0, [&] { order.push_back(2); });
  eng.schedule_at(10.0, [&] {
    order.push_back(0);
    EXPECT_DOUBLE_EQ(eng.now(), 10.0);
  });
  eng.schedule_at(10.0, [&] { order.push_back(1); });  // same instant: FIFO
  const Ns end = eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(end, 20.0);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(AlarmEngineTest, FreshEngineIsIdleAtZero) {
  AlarmEngine eng;
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.next_event_time(), kUnlimited);
}

TEST(AlarmEngineTest, RunUntilOnAnEmptyEngineAdvancesTheClock) {
  AlarmEngine eng;
  EXPECT_DOUBLE_EQ(eng.run_until(500.0), 500.0);
  EXPECT_DOUBLE_EQ(eng.now(), 500.0);
  EXPECT_EQ(eng.rounds(), 0);
}

TEST(AlarmEngineTest, ControlClosureMayScheduleTheNextInAChain) {
  AlarmEngine eng;
  int depth = 0;
  std::function<void()> link = [&] {
    if (++depth < 10) eng.schedule_at(eng.now() + 1.0, link);
  };
  eng.schedule_at(0.0, link);
  EXPECT_DOUBLE_EQ(eng.run(), 9.0);
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(AlarmEngineTest, AlarmsDrainBeforeControlAtTheSameInstant) {
  AlarmEngine eng;
  std::vector<std::string> order;
  eng.set_alarm_handler([&](const AlarmEngine::Alarm& alarm) {
    order.push_back("host" + std::to_string(alarm.host));
  });
  eng.set_merge_hook([&](Ns at) {
    order.push_back("merge@" + std::to_string(static_cast<int>(at)));
  });
  eng.schedule_at(10.0, [&] { order.push_back("control"); });
  eng.schedule_alarm(1, 10.0);
  eng.schedule_alarm(0, 10.0);
  eng.run();
  // Both alarms fire in host order, then the merge hook, then the
  // control closure — all at t = 10.
  EXPECT_EQ(order, (std::vector<std::string>{"host0", "host1", "merge@10",
                                             "control"}));
  EXPECT_EQ(eng.rounds(), 1);
  EXPECT_EQ(eng.alarms_fired(), 2);
}

TEST(AlarmEngineTest, RoundDrainsHostMajorThenSchedulingOrder) {
  // Within one instant the drain order is (host, seq), whatever order the
  // alarms were scheduled in — host by host, each host's alarms FIFO.
  AlarmEngine eng;
  std::vector<AlarmEngine::Handle> fired;
  eng.set_alarm_handler([&](const AlarmEngine::Alarm& alarm) {
    fired.push_back(alarm.handle);
  });
  const AlarmEngine::Handle host2_first = eng.schedule_alarm(2, 5.0);
  const AlarmEngine::Handle host0_first = eng.schedule_alarm(0, 5.0);
  const AlarmEngine::Handle host2_second = eng.schedule_alarm(2, 5.0);
  const AlarmEngine::Handle host1 = eng.schedule_alarm(1, 5.0);
  const AlarmEngine::Handle host0_second = eng.schedule_alarm(0, 5.0);
  eng.run();
  EXPECT_EQ(fired, (std::vector<AlarmEngine::Handle>{
                       host0_first, host0_second, host1, host2_first,
                       host2_second}));
  EXPECT_EQ(eng.rounds(), 1);
}

TEST(AlarmEngineTest, AlarmHandlerMayRescheduleItsOwnHost) {
  AlarmEngine eng;
  std::vector<long long> fired(3, 0);
  eng.set_alarm_handler([&](const AlarmEngine::Alarm& alarm) {
    if (++fired[static_cast<std::size_t>(alarm.host)] < 4) {
      eng.schedule_alarm(alarm.host, alarm.at + 5.0);
    }
  });
  for (int host = 0; host < 3; ++host) eng.schedule_alarm(host, 10.0);
  const Ns end = eng.run();
  // Each host fires at 10, 15, 20, 25.
  EXPECT_EQ(fired, (std::vector<long long>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(end, 25.0);
  EXPECT_EQ(eng.rounds(), 4);  // shared instants batch into rounds
  EXPECT_EQ(eng.alarms_fired(), 12);
}

TEST(AlarmEngineTest, RunUntilStopsAndAdvancesTheClock) {
  AlarmEngine eng;
  std::vector<Ns> fired;
  eng.schedule_at(10.0, [&] { fired.push_back(10.0); });
  eng.schedule_at(30.0, [&] { fired.push_back(30.0); });
  eng.schedule_alarm(0, 25.0);
  eng.set_alarm_handler(
      [&](const AlarmEngine::Alarm& alarm) { fired.push_back(alarm.at); });

  EXPECT_DOUBLE_EQ(eng.run_until(20.0), 20.0);
  EXPECT_EQ(fired, (std::vector<Ns>{10.0}));
  EXPECT_EQ(eng.pending(), 2u);
  EXPECT_DOUBLE_EQ(eng.next_event_time(), 25.0);

  // An empty stretch still advances the clock to `until`.
  EXPECT_DOUBLE_EQ(eng.run_until(22.0), 22.0);

  EXPECT_DOUBLE_EQ(eng.run(), 30.0);
  EXPECT_EQ(fired, (std::vector<Ns>{10.0, 25.0, 30.0}));
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(AlarmEngineTest, MergeHookMayScheduleAlarmsAndControl) {
  // Work scheduled from the merge hook lands in later rounds, never lost.
  AlarmEngine eng;
  std::vector<std::string> order;
  eng.set_alarm_handler([&](const AlarmEngine::Alarm& alarm) {
    order.push_back("host" + std::to_string(alarm.host));
  });
  eng.set_merge_hook([&](Ns at) {
    if (at == 10.0) {
      eng.schedule_alarm(1, 20.0);
      eng.schedule_at(15.0, [&] { order.push_back("control"); });
    }
  });
  eng.schedule_alarm(0, 10.0);
  const Ns end = eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"host0", "control", "host1"}));
  EXPECT_DOUBLE_EQ(end, 20.0);
}

TEST(AlarmEngineTest, CancelledAlarmNeverFiresAndItsInstantRunsNoRound) {
  // Alarms cancel like closures: a cancelled alarm leaves the heap at
  // once and never fires, the others keep their (host, seq) order, and an
  // instant that held only cancelled alarms runs no round and does not
  // move the clock. A closure replaces host 3's alarm the way a
  // reprojection does: cancel, then schedule.
  AlarmEngine eng;
  std::vector<AlarmEngine::Handle> fired;
  std::vector<Ns> merges;
  eng.set_alarm_handler([&](const AlarmEngine::Alarm& alarm) {
    fired.push_back(alarm.handle);
    eng.cancel(alarm.handle);  // already fired: a no-op
  });
  eng.set_merge_hook([&](Ns at) { merges.push_back(at); });
  const AlarmEngine::Handle host0 = eng.schedule_alarm(0, 10.0);
  const AlarmEngine::Handle host1 = eng.schedule_alarm(1, 10.0);
  const AlarmEngine::Handle host2 = eng.schedule_alarm(2, 10.0);
  const AlarmEngine::Handle lone = eng.schedule_alarm(0, 20.0);
  AlarmEngine::Handle host3 = eng.schedule_alarm(3, 20.0);
  const AlarmEngine::Handle superseded = host3;
  eng.schedule_at(15.0, [&] {
    eng.cancel(host3);
    host3 = eng.schedule_alarm(3, 25.0);
  });
  eng.cancel(host1);
  eng.cancel(lone);
  eng.cancel(lone);  // twice: a no-op
  EXPECT_EQ(eng.pending(), 4u);
  EXPECT_DOUBLE_EQ(eng.next_event_time(), 10.0);

  EXPECT_DOUBLE_EQ(eng.run_until(22.0), 22.0);
  EXPECT_EQ(fired, (std::vector<AlarmEngine::Handle>{host0, host2}));
  EXPECT_EQ(merges, (std::vector<Ns>{10.0}));
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_DOUBLE_EQ(eng.next_event_time(), 25.0);

  EXPECT_DOUBLE_EQ(eng.run(), 25.0);
  EXPECT_EQ(fired, (std::vector<AlarmEngine::Handle>{host0, host2, host3}));
  EXPECT_NE(host3, superseded);
  EXPECT_EQ(merges, (std::vector<Ns>{10.0, 25.0}));
  EXPECT_EQ(eng.rounds(), 2);
  EXPECT_EQ(eng.alarms_fired(), 3);
  EXPECT_EQ(eng.pending(), 0u);

  // Cancelled alarms alone leave an idle engine at its clock.
  const AlarmEngine::Handle late = eng.schedule_alarm(1, 40.0);
  eng.cancel(late);
  EXPECT_EQ(eng.next_event_time(), kUnlimited);
  EXPECT_DOUBLE_EQ(eng.run(), 25.0);
  EXPECT_EQ(eng.rounds(), 2);
}

TEST(AlarmEngineTest, CancelledClosureNeverFiresAndTheRestKeepTheirOrder) {
  AlarmEngine eng;
  std::vector<int> order;
  eng.schedule_at(10.0, [&] { order.push_back(1); });
  const AlarmEngine::Handle doomed =
      eng.schedule_at(10.0, [&] { order.push_back(2); });
  eng.schedule_at(5.0, [&] { order.push_back(0); });
  eng.schedule_at(10.0, [&] { order.push_back(3); });
  eng.schedule_at(20.0, [&] { order.push_back(4); });
  EXPECT_EQ(eng.pending(), 5u);
  eng.cancel(doomed);
  EXPECT_EQ(eng.pending(), 4u);
  EXPECT_DOUBLE_EQ(eng.run(), 20.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
}

TEST(AlarmEngineTest, CancellingAFiredCancelledOrDefaultHandleIsANoOp) {
  AlarmEngine eng;
  int fired = 0;
  const AlarmEngine::Handle early =
      eng.schedule_at(1.0, [&] { ++fired; });
  eng.schedule_at(5.0, [&] { ++fired; });
  eng.run_until(2.0);
  EXPECT_EQ(fired, 1);
  eng.cancel(early);  // already fired
  EXPECT_EQ(eng.pending(), 1u);

  const AlarmEngine::Handle twice = eng.schedule_at(3.0, [&] { ++fired; });
  eng.cancel(twice);
  eng.cancel(twice);
  EXPECT_EQ(eng.pending(), 1u);

  eng.cancel(AlarmEngine::Handle{});
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(AlarmEngineTest, StaleHandleLeavesTheSlotsNewOccupantAlone) {
  AlarmEngine eng;
  std::vector<int> order;
  const AlarmEngine::Handle cancelled =
      eng.schedule_at(1.0, [&] { order.push_back(0); });
  eng.cancel(cancelled);
  const AlarmEngine::Handle reused =
      eng.schedule_at(2.0, [&] { order.push_back(1); });
  ASSERT_EQ(reused.slot, cancelled.slot);
  eng.cancel(cancelled);
  EXPECT_EQ(eng.pending(), 1u);

  eng.run();
  const AlarmEngine::Handle fired = reused;
  eng.schedule_at(3.0, [&] { order.push_back(2); });
  eng.cancel(fired);  // the slot now holds the closure above
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(AlarmEngineTest, ClosureMayCancelALaterSameInstantClosure) {
  AlarmEngine eng;
  std::vector<int> order;
  AlarmEngine::Handle later;
  eng.schedule_at(10.0, [&] {
    order.push_back(0);
    eng.cancel(later);
  });
  later = eng.schedule_at(10.0, [&] { order.push_back(1); });
  eng.schedule_at(10.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(AlarmEngineTest, ClosureCancellingItsOwnHandleDoesNothing) {
  AlarmEngine eng;
  std::vector<int> order;
  AlarmEngine::Handle self;
  self = eng.schedule_at(10.0, [&] {
    order.push_back(0);
    eng.cancel(self);
    // The freed slot may be reused at once; the stale handle must not
    // reach the new closure.
    eng.schedule_at(10.0, [&] { order.push_back(2); });
    eng.cancel(self);
  });
  eng.schedule_at(10.0, [&] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.pending(), 0u);
}

class AlarmEngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlarmEngineProperty, DrainMatchesSortedReference) {
  // Random alarms and control events on a coarse time grid (so instants
  // are shared), where some control events schedule a later alarm and
  // some cancel a pre-scheduled alarm, and some alarms are cancelled
  // before the run. The engine's log must equal the order derived by
  // sorting the surviving alarms: per instant, alarms by (host,
  // scheduling order), one merge, then control events in scheduling
  // order. An instant left with only cancelled alarms runs no round.
  constexpr int kHosts = 5;
  constexpr std::size_t kAlarms = 60;
  constexpr std::size_t kControls = 25;
  Rng rng(GetParam() * 104729 + 3);
  struct Planned {
    Ns at;
    int host;  ///< Controls: host of the alarm they schedule, or -1.
    int victim = -1;  ///< Controls: the alarm they cancel, or -1.
  };
  std::vector<Planned> alarms, controls;
  for (std::size_t i = 0; i < kAlarms; ++i) {
    alarms.push_back({5.0 * static_cast<double>(rng.below(12)),
                      static_cast<int>(rng.below(kHosts))});
  }
  for (std::size_t c = 0; c < kControls; ++c) {
    const Ns at = 5.0 * static_cast<double>(rng.below(12));
    const int host =
        rng.below(2) == 0 ? -1 : static_cast<int>(rng.below(kHosts));
    controls.push_back({at, host});
  }
  for (Planned& c : controls) {
    if (rng.below(2) == 0) c.victim = static_cast<int>(rng.below(kAlarms));
  }
  std::vector<std::size_t> outside_cancels;
  for (std::size_t i = 0; i < kAlarms / 6; ++i) {
    outside_cancels.push_back(rng.below(kAlarms));  // repeats included
  }
  const auto at_suffix = [](std::string s, Ns at) {
    s += '@';
    s += std::to_string(static_cast<int>(at));
    return s;
  };
  const auto alarm_entry = [&](int host, std::uint64_t key, Ns at) {
    std::string s = "A";
    s += std::to_string(host);
    s += ':';
    s += std::to_string(key);
    return at_suffix(std::move(s), at);
  };
  const auto control_entry = [&](std::size_t c, Ns at) {
    std::string s = "C";
    s += std::to_string(c);
    return at_suffix(std::move(s), at);
  };
  const auto merge_entry = [&](Ns at) { return at_suffix("M", at); };

  // The engine. An alarm's reference key, found through its handle, is
  // its setup index for pre-scheduled alarms and kAlarms + firing order
  // for control-spawned ones. A handle is never reused, so it keys the
  // map for the whole run.
  AlarmEngine eng;
  std::vector<AlarmEngine::Handle> handles;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> key_of;
  const auto schedule_alarm = [&](int host, Ns at, std::uint64_t key) {
    const AlarmEngine::Handle handle = eng.schedule_alarm(host, at);
    EXPECT_TRUE(key_of.emplace(std::pair(handle.slot, handle.gen), key)
                    .second);
    return handle;
  };
  std::vector<std::string> log;
  eng.set_alarm_handler([&](const AlarmEngine::Alarm& alarm) {
    const std::uint64_t key =
        key_of.at(std::pair(alarm.handle.slot, alarm.handle.gen));
    log.push_back(alarm_entry(alarm.host, key, alarm.at));
  });
  eng.set_merge_hook([&](Ns at) { log.push_back(merge_entry(at)); });
  for (std::size_t i = 0; i < kAlarms; ++i) {
    handles.push_back(schedule_alarm(alarms[i].host, alarms[i].at, i));
  }
  std::uint64_t spawned = 0;
  for (std::size_t c = 0; c < kControls; ++c) {
    eng.schedule_at(controls[c].at, [&, c] {
      log.push_back(control_entry(c, eng.now()));
      if (controls[c].victim >= 0) {
        eng.cancel(handles[static_cast<std::size_t>(controls[c].victim)]);
      }
      if (controls[c].host >= 0) {
        schedule_alarm(controls[c].host, eng.now() + 5.0,
                       kAlarms + spawned++);
      }
    });
  }
  for (const std::size_t i : outside_cancels) eng.cancel(handles[i]);
  const std::set<std::size_t> cancelled_outside(outside_cancels.begin(),
                                                outside_cancels.end());
  EXPECT_EQ(eng.pending(), kAlarms + kControls - cancelled_outside.size());
  eng.run();

  // The reference, by sorting. A control cancels its victim only if the
  // victim is still pending: alarms drain before controls at an instant,
  // so an alarm due at or before the control has already fired.
  struct Keyed {
    Ns at;
    int host;
    std::uint64_t key;
  };
  std::vector<bool> survives(kAlarms, true);
  for (const std::size_t i : cancelled_outside) survives[i] = false;
  for (const Planned& c : controls) {
    if (c.victim < 0) continue;
    const std::size_t v = static_cast<std::size_t>(c.victim);
    if (alarms[v].at > c.at) survives[v] = false;
  }
  std::vector<Keyed> all;
  for (std::size_t i = 0; i < kAlarms; ++i) {
    if (survives[i]) all.push_back({alarms[i].at, alarms[i].host, i});
  }
  std::vector<std::size_t> control_order(kControls);
  std::iota(control_order.begin(), control_order.end(), 0);
  std::stable_sort(control_order.begin(), control_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return controls[a].at < controls[b].at;
                   });
  std::uint64_t k = 0;
  for (const std::size_t c : control_order) {
    if (controls[c].host < 0) continue;
    all.push_back({controls[c].at + 5.0, controls[c].host, kAlarms + k++});
  }
  std::sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.host != b.host) return a.host < b.host;
    return a.key < b.key;
  });
  std::set<Ns> instants;
  for (const Keyed& a : all) instants.insert(a.at);
  for (const Planned& c : controls) instants.insert(c.at);
  std::vector<std::string> expected;
  long long rounds = 0;
  for (const Ns t : instants) {
    bool any = false;
    for (const Keyed& a : all) {
      if (a.at != t) continue;
      expected.push_back(alarm_entry(a.host, a.key, a.at));
      any = true;
    }
    if (any) {
      expected.push_back(merge_entry(t));
      ++rounds;
    }
    for (const std::size_t c : control_order) {
      if (controls[c].at == t) expected.push_back(control_entry(c, t));
    }
  }

  EXPECT_EQ(log, expected);
  EXPECT_EQ(eng.rounds(), rounds);
  EXPECT_EQ(eng.alarms_fired(), static_cast<long long>(all.size()));
  EXPECT_DOUBLE_EQ(eng.now(), *instants.rbegin());
}

TEST_P(AlarmEngineProperty, CancelMatchesSortedReference) {
  // Random control closures on a time grid, with cancels from
  // outside (some twice) and from inside closures (of earlier, later,
  // same-instant or already-cancelled closures, or of themselves), and
  // children scheduled from inside closures into freshly freed slots.
  // The engine's log must equal a reference that keeps the survivors
  // sorted by (at, seq) and always fires the first.
  constexpr int kInitial = 150;
  constexpr int kChildren = 100;
  constexpr int kAll = kInitial + kChildren;
  Rng rng(GetParam() * 7919 + 11);
  struct Planned {
    Ns at = 0.0;         ///< Initial: absolute; child: delay after parent.
    int victim = -1;     ///< Entry this closure cancels when it fires.
    std::vector<int> children;
  };
  std::vector<Planned> plan(kAll);
  for (int e = 0; e < kAll; ++e) {
    Planned& p = plan[static_cast<std::size_t>(e)];
    p.at = 5.0 * static_cast<double>(rng.below(e < kInitial ? 40 : 4));
    if (rng.below(3) == 0) p.victim = static_cast<int>(rng.below(kAll));
  }
  for (int c = kInitial; c < kAll; ++c) {
    const int parent = static_cast<int>(rng.below(kInitial));
    plan[static_cast<std::size_t>(parent)].children.push_back(c);
  }
  std::vector<int> outside_cancels;
  for (int i = 0; i < kInitial / 4; ++i) {
    outside_cancels.push_back(static_cast<int>(rng.below(kInitial)));
  }

  const auto entry = [](int e, Ns at) {
    std::string s = "C";
    s += std::to_string(e);
    s += '@';
    s += std::to_string(static_cast<int>(at));
    return s;
  };

  // The engine.
  AlarmEngine eng;
  std::vector<AlarmEngine::Handle> handles(kAll);
  std::vector<std::string> log;
  std::function<void(int)> fire = [&](int e) {
    const Planned& p = plan[static_cast<std::size_t>(e)];
    log.push_back(entry(e, eng.now()));
    if (p.victim >= 0) eng.cancel(handles[static_cast<std::size_t>(p.victim)]);
    for (const int c : p.children) {
      const Ns at = eng.now() + plan[static_cast<std::size_t>(c)].at;
      handles[static_cast<std::size_t>(c)] =
          eng.schedule_at(at, [&, c] { fire(c); });
    }
  };
  for (int e = 0; e < kInitial; ++e) {
    handles[static_cast<std::size_t>(e)] = eng.schedule_at(
        plan[static_cast<std::size_t>(e)].at, [&, e] { fire(e); });
  }
  for (const int e : outside_cancels) {
    eng.cancel(handles[static_cast<std::size_t>(e)]);
  }
  const std::size_t pending_after_cancels = eng.pending();
  eng.run();

  // The reference: survivors sorted by (at, seq); cancelling erases.
  using Key = std::pair<Ns, std::uint64_t>;
  std::map<Key, int> pending;
  std::vector<std::optional<Key>> keys(kAll);
  std::uint64_t seq = 0;
  const auto schedule = [&](int e, Ns at) {
    const Key key{at, seq++};
    pending.emplace(key, e);
    keys[static_cast<std::size_t>(e)] = key;
  };
  const auto cancel = [&](int e) {
    std::optional<Key>& key = keys[static_cast<std::size_t>(e)];
    if (!key) return;
    pending.erase(*key);
    key.reset();
  };
  for (int e = 0; e < kInitial; ++e) {
    schedule(e, plan[static_cast<std::size_t>(e)].at);
  }
  for (const int e : outside_cancels) cancel(e);
  EXPECT_EQ(pending_after_cancels, pending.size());
  std::vector<std::string> expected;
  while (!pending.empty()) {
    const auto [key, e] = *pending.begin();
    pending.erase(pending.begin());
    keys[static_cast<std::size_t>(e)].reset();
    expected.push_back(entry(e, key.first));
    const Planned& p = plan[static_cast<std::size_t>(e)];
    if (p.victim >= 0) cancel(p.victim);
    for (const int c : p.children) {
      schedule(c, key.first + plan[static_cast<std::size_t>(c)].at);
    }
  }

  EXPECT_EQ(log, expected);
  EXPECT_EQ(eng.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, AlarmEngineProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace numaio::sim
