// EventScheduler order-contract tests (DESIGN.md Sec. 10.1): the
// calendar with its far-future heap must pop in the exact (time, level,
// seq) order of the reference std::priority_queue the simulation engine used
// before the rewrite, across irregular times, equal-time delta cycles,
// far-future events and interleaved push/pop streams.

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "sim/event_scheduler.hpp"
#include "util/rng.hpp"

namespace tr::sim {
namespace {

struct RefEvent {
  double time = 0.0;
  int level = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload = 0;

  bool operator>(const RefEvent& rhs) const {
    if (time != rhs.time) return time > rhs.time;
    if (level != rhs.level) return level > rhs.level;
    return seq > rhs.seq;
  }
};

using RefQueue =
    std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>;

/// Drives the scheduler and the reference queue with one interleaved
/// push/pop stream and asserts identical pop sequences. Pushed times are
/// always >= the last popped time, matching the engine's contract.
void differential_run(std::uint64_t seed, double bucket_width,
                      int bucket_count, int operations,
                      bool equal_time_bursts) {
  Rng rng(seed);
  EventScheduler scheduler;
  scheduler.reset(bucket_width, bucket_count);
  RefQueue reference;
  std::uint64_t seq = 0;
  double now = 0.0;
  std::uint32_t payload = 0;

  const auto push_one = [&](double time, int level) {
    scheduler.push(time, EventScheduler::pack_order(level, seq), payload);
    reference.push(RefEvent{time, level, seq, payload});
    ++seq;
    ++payload;
  };

  for (int op = 0; op < operations; ++op) {
    const bool do_push = reference.empty() || rng.next_double() < 0.55;
    if (do_push) {
      // Mix near (same-bucket to few-buckets), mid-window and far-future
      // horizons so every lane and the window slide get exercised.
      const double pick = rng.next_double();
      double delta = 0.0;
      if (pick < 0.5) {
        delta = rng.uniform(0.0, 4.0 * bucket_width);
      } else if (pick < 0.85) {
        delta = rng.uniform(0.0, bucket_width * bucket_count);
      } else {
        delta = rng.uniform(0.0, 50.0 * bucket_width * bucket_count);
      }
      const int level = static_cast<int>(rng.next_below(12));
      push_one(now + delta, level);
      if (equal_time_bursts && rng.next_double() < 0.4) {
        // Delta cycle: several events at the identical instant with
        // mixed levels — the zero-delay mode's bread and butter.
        const double t = now + rng.uniform(0.0, 2.0 * bucket_width);
        for (int burst = 0; burst < 3; ++burst) {
          push_one(t, static_cast<int>(rng.next_below(5)));
        }
      }
    } else {
      EventScheduler::Event got;
      ASSERT_TRUE(scheduler.peek(got));
      const RefEvent expected = reference.top();
      reference.pop();
      EXPECT_EQ(got.time, expected.time);
      EXPECT_EQ(got.order,
                EventScheduler::pack_order(expected.level, expected.seq));
      EXPECT_EQ(got.payload, expected.payload);
      scheduler.pop();
      now = expected.time;
    }
  }
  // Drain both completely.
  while (!reference.empty()) {
    EventScheduler::Event got;
    ASSERT_TRUE(scheduler.peek(got));
    const RefEvent expected = reference.top();
    reference.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.order,
              EventScheduler::pack_order(expected.level, expected.seq));
    ASSERT_EQ(got.payload, expected.payload);
    scheduler.pop();
  }
  EventScheduler::Event leftover;
  EXPECT_FALSE(scheduler.peek(leftover));
  EXPECT_TRUE(scheduler.empty());
}

TEST(EventScheduler, CalendarMatchesReferenceOrder) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 12345ULL}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    differential_run(seed, 1e-6, 64, 4000, false);
  }
}

TEST(EventScheduler, CalendarHandlesEqualTimeDeltaCycles) {
  for (std::uint64_t seed : {3ULL, 9ULL, 77ULL}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    differential_run(seed, 1e-6, 128, 4000, true);
  }
}

TEST(EventScheduler, TinyBucketCountStressesWindowSlides) {
  // Two buckets: nearly every push is far-future, so the window slides
  // and drains constantly.
  differential_run(2026, 5e-7, 2, 3000, true);
}

TEST(EventScheduler, FarFutureJumpSkipsEmptyLaps) {
  EventScheduler scheduler;
  scheduler.reset(1e-9, 16);
  // An event ~1e12 bucket-widths away: per-lap sliding would never
  // terminate in test time, so peek must jump.
  scheduler.push(1e3, EventScheduler::pack_order(0, 0), 7);
  EventScheduler::Event got;
  ASSERT_TRUE(scheduler.peek(got));
  EXPECT_EQ(got.time, 1e3);
  EXPECT_EQ(got.payload, 7u);
  scheduler.pop();
  EXPECT_TRUE(scheduler.empty());
}

TEST(EventScheduler, ResetRetainsStorageAndClearsEvents) {
  EventScheduler scheduler;
  scheduler.reset(1e-6, 32);
  for (int i = 0; i < 1000; ++i) {
    scheduler.push(1e-7 * i, EventScheduler::pack_order(0, i), 0);
  }
  const std::size_t warm = scheduler.allocated_bytes();
  EXPECT_GT(warm, 0u);
  scheduler.reset(1e-6, 32);
  EXPECT_TRUE(scheduler.empty());
  EXPECT_EQ(scheduler.allocated_bytes(), warm);  // capacity retained
  // And it still orders correctly after reuse.
  scheduler.push(2.0, EventScheduler::pack_order(1, 11), 1);
  scheduler.push(2.0, EventScheduler::pack_order(0, 12), 2);
  EventScheduler::Event got;
  ASSERT_TRUE(scheduler.peek(got));
  EXPECT_EQ(got.payload, 2u);  // lower level wins the time tie
}

TEST(EventScheduler, PackOrderIsLexicographic) {
  // level dominates seq; seq orders FIFO within a level.
  EXPECT_LT(EventScheduler::pack_order(0, 5), EventScheduler::pack_order(1, 0));
  EXPECT_LT(EventScheduler::pack_order(2, 3), EventScheduler::pack_order(2, 4));
  EXPECT_EQ(EventScheduler::pack_order(EventScheduler::max_level,
                                       EventScheduler::max_seq),
            ~std::uint64_t{0});
}

}  // namespace
}  // namespace tr::sim
