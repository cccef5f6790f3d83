// Timer-wheel edge cases, exercised through the Simulator front end so the
// slab (TimerId generations, cancel, purge) is covered together with the
// wheel (placement, cascades, overflow, min-cache).
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "support/time.h"

namespace lm::sim {
namespace {

TEST(TimerWheel, CancelThenFireLeavesOthersIntact) {
  Simulator sim;
  std::vector<int> fired;
  const TimerId a = sim.schedule_after(Duration::seconds(1), [&] { fired.push_back(1); });
  const TimerId b = sim.schedule_after(Duration::seconds(1), [&] { fired.push_back(2); });
  const TimerId c = sim.schedule_after(Duration::seconds(2), [&] { fired.push_back(3); });
  EXPECT_TRUE(sim.is_pending(a));
  sim.cancel(a);
  EXPECT_FALSE(sim.is_pending(a));
  EXPECT_TRUE(sim.is_pending(b));

  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
  EXPECT_FALSE(sim.is_pending(b));
  // Cancelling fired or already-cancelled ids is a harmless no-op.
  sim.cancel(a);
  sim.cancel(b);
  sim.cancel(c);
}

TEST(TimerWheel, SameTickFiresInScheduleOrder) {
  Simulator sim;
  const TimePoint t = TimePoint::origin() + Duration::seconds(5);
  std::vector<int> fired;
  // Deliberately scheduled out of any helpful insertion pattern: all land in
  // the same wheel slot and must come back in schedule (seq) order.
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 50u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(TimerWheel, SameTickReentrantSchedulesFireAfterQueued) {
  Simulator sim;
  const TimePoint t = TimePoint::origin() + Duration::milliseconds(3);
  std::vector<int> fired;
  sim.schedule_at(t, [&] {
    fired.push_back(0);
    // Scheduled at the current tick from inside an event: fires after the
    // two already-queued same-tick events (higher seq), not before.
    sim.schedule_at(t, [&] { fired.push_back(3); });
  });
  sim.schedule_at(t, [&] { fired.push_back(1); });
  sim.schedule_at(t, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimerWheel, FarFutureTimersCascadeAcrossEveryLevel) {
  Simulator sim;
  // One timer per wheel level: 64^l µs apart. The far ones sit in high
  // levels and must cascade down as time reaches them.
  std::vector<std::int64_t> fired_at;
  std::vector<Duration> delays = {
      Duration::microseconds(3),        // level 0
      Duration::microseconds(200),      // level 1
      Duration::milliseconds(9),        // level 2
      Duration::milliseconds(600),      // level 3
      Duration::seconds(20),            // level 4
      Duration::minutes(30),            // level 5
      Duration::hours(40),              // level 6
      Duration::hours(24 * 300),       // level 7
  };
  for (const Duration d : delays) {
    sim.schedule_after(d, [&fired_at, &sim] { fired_at.push_back(sim.now().us()); });
  }
  sim.run();
  ASSERT_EQ(fired_at.size(), delays.size());
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_EQ(fired_at[i], delays[i].us()) << "timer " << i;
  }
}

TEST(TimerWheel, BeyondHorizonOverflowStillFiresInOrder) {
  Simulator sim;
  // The wheel horizon is 64^8 µs (about 8.9 years); these park in the
  // overflow list until everything nearer has drained.
  const Duration ten_years = Duration::hours(24 * 3650);
  const Duration twenty_years = ten_years * 2;
  std::vector<int> fired;
  sim.schedule_after(twenty_years, [&] { fired.push_back(3); });
  sim.schedule_after(Duration::seconds(1), [&] { fired.push_back(1); });
  sim.schedule_after(ten_years, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().us(), twenty_years.us());
}

TEST(TimerWheel, CancelHeavyWorkloadPurgesAndKeepsSurvivors) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_after(Duration::milliseconds(1 + i),
                                     [&fired, i] { fired.push_back(i); }));
  }
  // Cancel all but every 100th — the dead-entry purge must not disturb the
  // survivors or their order.
  for (int i = 0; i < 1000; ++i) {
    if (i % 100 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending(), 10u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 100, 200, 300, 400, 500, 600, 700, 800, 900}));
}

TEST(TimerWheel, InsertEarlierThanCachedMinimumAfterRunUntil) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(TimePoint::from_us(200), [&] { fired.push_back(200); });
  // run_until peeks (and caches) the pending minimum without popping it.
  sim.run_until(TimePoint::from_us(150));
  EXPECT_EQ(sim.now().us(), 150);
  EXPECT_TRUE(fired.empty());
  // A later insert below the cached minimum must invalidate the cache.
  sim.schedule_at(TimePoint::from_us(160), [&] { fired.push_back(160); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{160, 200}));
}

TEST(TimerWheel, RandomizedScheduleCancelMatchesReferenceModel) {
  Simulator sim;
  Rng rng(0xB0C4D5E6F7081920ULL);

  // Model: every scheduled event as (time, seq, token); expected firing
  // order is the (time, seq) sort of the survivors.
  struct Expected {
    std::int64_t at;
    std::size_t seq;
    int token;
  };
  std::vector<Expected> model;
  std::vector<TimerId> ids;
  std::vector<int> fired;

  const std::int64_t spans[] = {50, 5'000, 500'000, 50'000'000, 5'000'000'000};
  int token = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::int64_t span = spans[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(std::size(spans)) - 1))];
    const std::int64_t at = rng.uniform_int(0, span);
    const int tk = token++;
    ids.push_back(sim.schedule_at(TimePoint::from_us(at),
                                  [&fired, tk] { fired.push_back(tk); }));
    model.push_back({at, static_cast<std::size_t>(round), tk});
  }
  // Cancel roughly a third, including some double-cancels.
  std::vector<bool> cancelled(model.size(), false);
  for (int i = 0; i < 900; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
    sim.cancel(ids[pick]);
    cancelled[pick] = true;
  }
  std::vector<Expected> survivors;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (!cancelled[i]) survivors.push_back(model[i]);
  }
  std::sort(survivors.begin(), survivors.end(), [](const Expected& a, const Expected& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });

  sim.run();
  ASSERT_EQ(fired.size(), survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_EQ(fired[i], survivors[i].token) << "position " << i;
  }
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TimerWheel, SynchronizedBurstSurvivesMidBurstPurge) {
  // Thousands of nodes that boot together arm their maintenance timers at
  // the same microsecond. Mid-burst, one handler cancels 1,800 of the
  // queued timers: more than 1,024 dead entries and more dead than live, so
  // the Simulator purges while the level-0 queue is partly consumed. Every
  // seventh handler also schedules more work at the same tick. Everything
  // must still fire in schedule order.
  Simulator sim;
  const TimePoint t = TimePoint::origin() + Duration::seconds(10);
  constexpr int kBurst = 3000;
  std::vector<int> fired;
  std::vector<TimerId> ids;
  int next_label = kBurst;  // labels follow schedule order
  std::vector<int> expected;
  for (int i = 0; i < kBurst; ++i) {
    ids.push_back(sim.schedule_at(t, [&, i] {
      fired.push_back(i);
      if (i == 500) {
        for (int j = 1000; j < kBurst; ++j) {
          if (j % 10 != 0) sim.cancel(ids[static_cast<std::size_t>(j)]);
        }
      }
      if (i % 7 == 0) {
        const int label = next_label++;
        expected.push_back(label);
        sim.schedule_at(t, [&fired, label] { fired.push_back(label); });
      }
    }));
  }
  std::vector<int> burst;
  for (int i = 0; i < kBurst; ++i) {
    if (i < 1000 || i % 10 == 0) burst.push_back(i);
  }
  sim.run();
  expected.insert(expected.begin(), burst.begin(), burst.end());
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.now(), t);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TimerWheel, SameTimeBeyondHorizonFiresInScheduleOrder) {
  // Both times lie beyond the 64^8 µs horizon. When the overflow list
  // drains, the nearer group must enter its level-0 slot in schedule order;
  // the farther group stays parked, also in order, until it drains next.
  Simulator sim;
  const Duration ten_years = Duration::hours(24 * 3650);
  const Duration twenty_years = ten_years * 2;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_after(i % 2 == 0 ? ten_years : twenty_years,
                       [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
  EXPECT_EQ(sim.now().us(), twenty_years.us());
}

TEST(TimerWheel, PopAfterPeekReturnsAnEarlierInsert) {
  TimerWheel wheel;
  TimerWheel::Entry e{};
  // Level 0: same 64 µs window as the wheel time.
  wheel.insert({40, 1, 0, 1});
  ASSERT_TRUE(wheel.peek(e));
  EXPECT_EQ(e.seq, 1u);
  wheel.insert({10, 2, 1, 1});
  EXPECT_EQ(wheel.pop_min().seq, 2u);
  wheel.insert({500, 3, 2, 1});
  ASSERT_TRUE(wheel.peek(e));
  EXPECT_EQ(e.seq, 1u);
  EXPECT_EQ(wheel.pop_min().seq, 1u);
  // Level 1: the peeked minimum comes from scanning a higher-level slot.
  ASSERT_TRUE(wheel.peek(e));
  EXPECT_EQ(e.seq, 3u);
  wheel.insert({300, 4, 3, 1});
  EXPECT_EQ(wheel.pop_min().seq, 4u);
  EXPECT_EQ(wheel.pop_min().seq, 3u);
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.current(), 500);
}

}  // namespace
}  // namespace lm::sim
