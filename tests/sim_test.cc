#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace pard {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(300, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
}

TEST(Simulation, TiesBreakByScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(50, [&] { order.push_back(1); });
  sim.ScheduleAt(50, [&] { order.push_back(2); });
  sim.ScheduleAt(50, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(25, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 125);
}

TEST(Simulation, SchedulingIntoThePastThrows) {
  Simulation sim;
  sim.ScheduleAt(100, [&] {
    EXPECT_THROW(sim.ScheduleAt(50, [] {}), CheckError);
  });
  sim.Run();
}

TEST(Simulation, NegativeDelayThrows) {
  Simulation sim;
  EXPECT_THROW(sim.ScheduleAfter(-1, [] {}), CheckError);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelUnknownIdReturnsFalse) {
  Simulation sim;
  EXPECT_FALSE(sim.Cancel(12345));
}

TEST(Simulation, CancelFiredEventReturnsFalse) {
  Simulation sim;
  const EventId id = sim.ScheduleAt(10, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(Simulation, DoubleCancelReturnsFalse) {
  Simulation sim;
  const EventId id = sim.ScheduleAt(10, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  sim.Run();
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
}

TEST(Simulation, CancelAtCurrentTime) {
  // An event scheduled for Now() (fires later this instant) can still be
  // cancelled before the kernel reaches it.
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(10, [&] {
    const EventId id = sim.ScheduleAt(sim.Now(), [&] { fired = true; });
    EXPECT_TRUE(sim.Cancel(id));
  });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.Now(), 10);
}

TEST(Simulation, CancelledIdStaysDeadAfterSlotReuse) {
  // Cancelling frees the slot for reuse; the old id must not be able to
  // cancel (or otherwise touch) the slot's next occupant.
  Simulation sim;
  const EventId stale = sim.ScheduleAt(10, [] {});
  EXPECT_TRUE(sim.Cancel(stale));
  bool fired = false;
  sim.ScheduleAt(10, [&] { fired = true; });  // Likely reuses the slot.
  EXPECT_FALSE(sim.Cancel(stale));
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelMiddleOfSameTickPreservesOrder) {
  // Three events at one instant; cancelling the middle one must keep the
  // others in schedule order.
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(50, [&] { order.push_back(1); });
  const EventId middle = sim.ScheduleAt(50, [&] { order.push_back(2); });
  sim.ScheduleAt(50, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.Cancel(middle));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulation, SelfCancelInsideCallbackReturnsFalse) {
  // By firing time the event is already retired; cancelling its own id from
  // inside the callback is a no-op.
  Simulation sim;
  EventId self = 0;
  bool result = true;
  self = sim.ScheduleAt(5, [&] { result = sim.Cancel(self); });
  sim.Run();
  EXPECT_FALSE(result);
}

TEST(Simulation, FarApartEventTimesFireInOrder) {
  // Spread events across very different timescales (all wheel levels).
  Simulation sim;
  std::vector<SimTime> fired;
  const std::vector<SimTime> times = {1,
                                      255,
                                      256,
                                      65536,
                                      1000000,
                                      3600LL * 1000000,
                                      400LL * 1000000 * 86400};
  // Schedule in reverse to exercise out-of-order insertion.
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const SimTime t = *it;
    sim.ScheduleAt(t, [&fired, t] { fired.push_back(t); });
  }
  sim.Run();
  EXPECT_EQ(fired, times);
  EXPECT_EQ(sim.Now(), times.back());
}

TEST(Simulation, RunUntilThenScheduleBeforePendingEvent) {
  // Stop the clock inside an empty stretch, then schedule ahead of the
  // still-pending far event; both must fire in time order.
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(1000000, [&] { order.push_back(2); });
  sim.Run(5000);
  EXPECT_EQ(sim.Now(), 5000);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.ScheduleAt(7000, [&] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  sim.Run(20);
  EXPECT_EQ(fired, 2);  // Events exactly at the boundary run.
  EXPECT_EQ(sim.Now(), 20);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      sim.ScheduleAfter(1, recurse);
    }
  };
  sim.ScheduleAt(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), 99);
  EXPECT_EQ(sim.ExecutedEvents(), 100u);
}

TEST(Simulation, CancelledEventsDoNotBlockRunUntil) {
  Simulation sim;
  const EventId id = sim.ScheduleAt(5, [] {});
  sim.Cancel(id);
  bool fired = false;
  sim.ScheduleAt(50, [&] { fired = true; });
  sim.Run(100);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), 100);  // Clock advances to the requested horizon.
}

TEST(Simulation, PendingEventsCountsLiveOnly) {
  Simulation sim;
  const EventId a = sim.ScheduleAt(1, [] {});
  sim.ScheduleAt(2, [] {});
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

// --- Streams (ScheduleStream) ----------------------------------------------

TEST(SimulationStream, EarlierScheduledEventFiresFirstAtSameInstant) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] { order.push_back(0); });
  const std::vector<SimTime> times = {10, 20};
  int entry = 0;
  sim.ScheduleStream(times, [&] { order.push_back(++entry); });
  sim.ScheduleAt(20, [&] { order.push_back(9); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(SimulationStream, EventScheduledFromCallbackFiresAfterPendingEntry) {
  Simulation sim;
  std::vector<int> order;
  const std::vector<SimTime> times = {5, 30};
  int entry = 0;
  sim.ScheduleStream(times, [&] { order.push_back(++entry); });
  sim.ScheduleAt(7, [&] { sim.ScheduleAt(30, [&] { order.push_back(9); }); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
}

TEST(SimulationStream, EqualTimeEntriesFireInIndexOrder) {
  Simulation sim;
  std::vector<SimTime> fired_at;
  const std::vector<SimTime> times = {4, 4, 4, 8, 8};
  sim.ScheduleStream(times, [&] { fired_at.push_back(sim.Now()); });
  // An event at the same instant, scheduled after the stream, trails it.
  sim.ScheduleAt(4, [&] { fired_at.push_back(-1); });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{4, 4, 4, -1, 8, 8}));
}

TEST(SimulationStream, RunUntilFiresBoundaryEntriesAndResumes) {
  Simulation sim;
  int fired = 0;
  const std::vector<SimTime> times = {10, 20, 20, 30};
  sim.ScheduleStream(times, [&] { ++fired; });
  sim.Run(20);
  EXPECT_EQ(fired, 3);  // Entries exactly at the horizon run.
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run(25);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), 25);
  sim.Run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulationStream, StepFiresEntriesAndCountsThem) {
  Simulation sim;
  int fired = 0;
  const std::vector<SimTime> times = {1, 3};
  sim.ScheduleStream(times, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { fired += 10; });
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 11);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 12);
  EXPECT_EQ(sim.Now(), 3);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.ExecutedEvents(), 3u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulationStream, RejectsBadStreams) {
  Simulation sim;
  const std::vector<SimTime> unsorted = {5, 3};
  EXPECT_THROW(sim.ScheduleStream(unsorted, [] {}), CheckError);
  sim.ScheduleAt(100, [] {});
  sim.Run();
  const std::vector<SimTime> past = {50, 150};
  EXPECT_THROW(sim.ScheduleStream(past, [] {}), CheckError);
  const std::vector<SimTime> times = {200, 300};
  EXPECT_THROW(sim.ScheduleStream(times, Simulation::Callback()), CheckError);
  int fired = 0;
  sim.ScheduleStream(times, [&] { ++fired; });
  EXPECT_THROW(sim.ScheduleStream(times, [] {}), CheckError);
  // None of the rejected calls attached or reserved anything.
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationStream, NewStreamAttachesOnceThePreviousIsExhausted) {
  Simulation sim;
  std::vector<int> order;
  {
    const std::vector<SimTime> first = {1, 2};
    sim.ScheduleStream(first, [&] { order.push_back(1); });
    sim.Run();
  }
  // `first` is gone: an exhausted stream must leave nothing behind that
  // reads it (ASan flags a stale read).
  EXPECT_EQ(sim.PendingEvents(), 0u);
  const std::vector<SimTime> second = {2, 5};
  sim.ScheduleStream(second, [&] { order.push_back(2); });
  sim.ScheduleAt(3, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 3, 2}));
  // The last entry's callback may attach the next stream itself.
  const std::vector<SimTime> third = {6};
  const std::vector<SimTime> fourth = {6, 7};
  sim.ScheduleStream(third, [&] { sim.ScheduleStream(fourth, [&] { order.push_back(4); }); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 3, 2, 4, 4}));
}

TEST(SimulationStream, CancelStreamDropsUnfiredEntries) {
  Simulation sim;
  int fired = 0;
  const std::vector<SimTime> times = {1, 2, 3};
  sim.ScheduleStream(times, [&] { ++fired; });
  sim.Run(1);
  sim.CancelStream();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.CancelStream();  // No stream attached: a no-op.
}

// One seeded workload in which every firing, entry or event, schedules
// follow-ups at delays spanning several wheel levels (zero-delay ones land on
// pending entries' instants), driven through Run horizons that fall between
// and on event times. Entries come either pre-scheduled as events or as a
// stream; the logs must match exactly.
std::vector<std::pair<int, SimTime>> ReplayWorkload(bool as_stream) {
  Rng arrivals(11);
  std::vector<SimTime> times;
  SimTime t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += arrivals.Bernoulli(0.25) ? 0 : arrivals.UniformInt(1, 5000);
    times.push_back(t);
  }
  Simulation sim;
  Rng rng(23);
  std::vector<std::pair<int, SimTime>> log;
  int scheduled = 0;
  std::function<void(int)> fired = [&](int label) {
    log.emplace_back(label, sim.Now());
    const std::int64_t follow_ups = rng.UniformInt(0, 2);
    for (std::int64_t k = 0; k < follow_ups && scheduled < 6000; ++k) {
      static constexpr SimTime kMaxDelay[] = {0, 300, 70000, 20000000};
      const SimTime delay = rng.UniformInt(0, kMaxDelay[rng.UniformInt(0, 3)]);
      const int id = ++scheduled;
      sim.ScheduleAfter(delay, [&fired, id] { fired(id); });
    }
  };
  // Events scheduled ahead of the entries, some at an entry's instant.
  for (std::size_t i : {std::size_t{0}, std::size_t{700}, times.size() - 1}) {
    const int id = ++scheduled;
    sim.ScheduleAt(times[i], [&fired, id] { fired(id); });
  }
  int entry = 0;
  if (as_stream) {
    sim.ScheduleStream(times, [&] { fired(-++entry); });
  } else {
    for (SimTime at : times) {
      sim.ScheduleAt(at, [&] { fired(-++entry); });
    }
  }
  for (SimTime until = 0; sim.PendingEvents() > 0; until += 77777) {
    sim.Run(until);
  }
  EXPECT_EQ(sim.ExecutedEvents(), log.size());
  return log;
}

TEST(SimulationStream, MatchesPreScheduledEntriesEventForEvent) {
  const std::vector<std::pair<int, SimTime>> expected = ReplayWorkload(false);
  const std::vector<std::pair<int, SimTime>> streamed = ReplayWorkload(true);
  EXPECT_GT(expected.size(), 6000u);
  EXPECT_EQ(streamed, expected);
}

}  // namespace
}  // namespace pard
