// Tests for util::ThreadPool, the gate-parallel traversal's engine:
// every index runs exactly once, results land in disjoint slots
// regardless of thread count, exceptions propagate, and the pool is
// reusable across jobs (the optimizer calls parallel_for once per
// optimize() invocation on a long-lived pool).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace tr::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, DisjointSlotWritesAreDeterministic) {
  // The optimizer's usage pattern: worker i writes only slot i, so the
  // result must be independent of scheduling and thread count.
  std::vector<long> expected(1000);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<long>(i * i + 7);
  }
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<long> out(expected.size(), -1);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<long>(i * i + 7);
    });
    EXPECT_EQ(out, expected);
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  long total = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<long> out(64, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<long>(i) + round;
    });
    total += std::accumulate(out.begin(), out.end(), 0L);
  }
  // sum over rounds of sum_i (i + round), i < 64.
  long expected = 0;
  for (int round = 0; round < 20; ++round) {
    expected += 64L * 63 / 2 + 64L * round;
  }
  EXPECT_EQ(total, expected);
}

TEST(ThreadPool, PropagatesExceptions) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t i) {
                                     if (i == 37) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    // The pool survives a failed job.
    std::atomic<int> count{0};
    pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPool, PreservesExceptionTypeAndMessage) {
  // The fault-isolation layer classifies failures by tr::Error code, so
  // the pool must rethrow the original exception object at the join —
  // not a wrapper, not a stripped copy.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    try {
      pool.parallel_for(50, [](std::size_t i) {
        if (i == 13) {
          Error e("circuit exploded", ErrorCode::parse);
          e.add_site("score");
          throw e;
        }
      });
      FAIL() << "expected tr::Error";
    } catch (const Error& e) {
      EXPECT_EQ(ErrorCode::parse, e.code());
      EXPECT_STREQ("circuit exploded", e.what());
      EXPECT_EQ("score", e.site_chain());
    }
  }
}

TEST(ThreadPool, SurvivesManyFailedJobs) {
  // A long-lived pool (the batch driver's) must not leak state from a
  // failed generation into the next: alternate failing and succeeding
  // jobs on one pool.
  ThreadPool pool(3);
  for (int round = 0; round < 25; ++round) {
    EXPECT_THROW(pool.parallel_for(40,
                                   [&](std::size_t i) {
                                     if (i == static_cast<std::size_t>(
                                                  round % 40)) {
                                       throw Error("round failure");
                                     }
                                   }),
                 Error);
    std::atomic<int> count{0};
    pool.parallel_for(40, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 40) << "round " << round;
  }
}

TEST(ThreadPool, ConcurrentThrowersPropagateExactlyOne) {
  // Every index throws; exactly one exception reaches the caller and
  // the rest are swallowed with their indices aborted.
  for (int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    int caught = 0;
    try {
      pool.parallel_for(100, [](std::size_t i) {
        throw Error("thrower " + std::to_string(i));
      });
    } catch (const Error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1);
    // And the pool still works afterwards.
    std::atomic<int> count{0};
    pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 16);
  }
}

TEST(ThreadPool, HandlesEmptyAndSingleElementRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, FailedThreadStartJoinsStartedWorkersAndThrowsResource) {
  // The util.thread_spawn site fails the nth thread creation the way the
  // system would: the workers already started are joined (no
  // std::terminate from a joinable std::thread) and the constructor
  // throws a resource error. A small pool suffices.
  for (const fault::FaultKind kind :
       {fault::FaultKind::error, fault::FaultKind::bad_alloc,
        fault::FaultKind::runtime}) {
    for (const std::uint64_t nth : {1u, 3u}) {
      fault::ScopedFault armed("util.thread_spawn", nth, kind);
      try {
        ThreadPool pool(5);
        FAIL() << "expected the pool construction to throw";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::resource);
        EXPECT_NE(std::string(e.what()).find(
                      "ThreadPool: could not start worker " +
                      std::to_string(nth) + " of 4"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(armed.fired());
    }
  }
  // Disarmed, the same size starts normally.
  ThreadPool pool(5);
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, DefaultSizeUsesHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1);
}

}  // namespace
}  // namespace tr::util
