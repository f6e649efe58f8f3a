#include "util/thread_pool.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/retry.h"

namespace cpsguard::util {
namespace {

std::uint64_t suppressed_counter() {
  return obs::Registry::instance()
      .counter("threadpool.failures_suppressed")
      .value();
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
  }
}

#if defined(__linux__)
TEST(ThreadPool, KeepOffCpuRunsNoTaskOnThatCpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  if (CPU_COUNT(&allowed) < 2) GTEST_SKIP() << "needs two CPUs";
  int off = 0;
  while (!CPU_ISSET(off, &allowed)) ++off;

  ThreadPool pool(4);
  pool.keep_off_cpu(off);
  pool.keep_off_cpu(off);  // repeating the CPU is a no-op
  std::atomic<int> on_off_cpu{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&on_off_cpu, off] {
      if (sched_getcpu() == off) on_off_cpu.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(on_off_cpu.load(), 0);
}
#endif

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeReflectsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, SurvivesThrowingTaskAndStaysUsable) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  try {
    pool.wait_idle();
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // The error was cleared and the worker survived: the pool keeps working.
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();  // must not rethrow again
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, KeepsFirstExceptionOnly) {
  ThreadPool pool(1);  // serial worker makes "first" deterministic
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, AggregatesSuppressedFailuresInsteadOfDroppingThem) {
  ThreadPool pool(1);  // serial worker: all three failures land before idle
  const std::uint64_t before = suppressed_counter();
  for (int i = 0; i < 3; ++i) {
    pool.submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // First failure rethrown, the other two aggregated — visible both on the
  // pool and in the obs counter.
  EXPECT_EQ(pool.suppressed_failures_total(), 2u);
  EXPECT_EQ(suppressed_counter(), before + 2);

  // The aggregate is cumulative across wait_idle cycles.
  pool.submit([] { throw std::runtime_error("boom"); });
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(pool.suppressed_failures_total(), 3u);
}

TEST(ThreadPool, SingleFailureIsNotCountedAsSuppressed) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("only one"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(pool.suppressed_failures_total(), 0u);
}

TEST(ThreadPool, SubmitWithRetryRecoversTransientFailure) {
  ThreadPool pool(2);
  TaskOptions opts;
  opts.retry = RetryPolicy::for_tasks();
  opts.retry.sleep = false;
  opts.site = "test.flaky";
  std::atomic<int> calls{0};
  pool.submit(
      [&calls] {
        if (calls.fetch_add(1) == 0) throw RetryableError("transient");
      },
      opts);
  pool.wait_idle();  // must not rethrow: the retry absorbed the failure
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, SubmitWithRetryStillFailsOnNonRetryableError) {
  ThreadPool pool(2);
  TaskOptions opts;
  opts.retry = RetryPolicy::for_tasks();
  opts.retry.sleep = false;
  std::atomic<int> calls{0};
  pool.submit(
      [&calls] {
        calls.fetch_add(1);
        throw std::logic_error("bug");
      },
      opts);
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ExpiredDeadlineSkipsTaskWithoutRunningIt) {
  ThreadPool pool(2);
  TaskOptions opts;
  opts.deadline = Deadline::after_seconds(-1.0);
  opts.site = "test.late";
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); }, opts);
  EXPECT_THROW(pool.wait_idle(), DeadlineExceeded);
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPool, TaskPollsGlobalDeadlineCooperatively) {
  set_global_deadline(Deadline::after_seconds(-1.0));
  ThreadPool pool(2);
  std::atomic<bool> reached_after_check{false};
  pool.submit([&reached_after_check] {
    check_deadline("test.cooperative");
    reached_after_check.store(true);
  });
  EXPECT_THROW(pool.wait_idle(), DeadlineExceeded);
  EXPECT_FALSE(reached_after_check.load());
  set_global_deadline(Deadline{});  // disarm for the rest of the suite
}

TEST(ThreadPool, UnsetDeadlineNeverFires) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.submit(
      [&ran] {
        check_deadline("test.unset");
        ran.store(true);
      },
      TaskOptions{});
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ParallelFor, CountsSuppressedFailuresBeyondTheFirst) {
  const std::uint64_t before = suppressed_counter();
  try {
    parallel_for(50, [](int i) {
      if (i == 3 || i == 20 || i == 40) throw std::runtime_error("boom");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // All iterations complete, so all 3 failures land: 1 rethrown + 2 counted.
  EXPECT_EQ(suppressed_counter(), before + 2);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(257, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  parallel_for(0, [](int) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SingleThreadRunsInline) {
  std::vector<int> order;
  parallel_for(5, [&](int i) { order.push_back(i); }, /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(10, [](int i) {
        if (i == 7) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ParallelFor, CompletesAllDespiteOneFailure) {
  std::atomic<int> completed{0};
  try {
    parallel_for(50, [&](int i) {
      if (i == 3) throw std::runtime_error("boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(completed.load(), 49);
}

TEST(SharedPool, IsAProcessWideSingleton) {
  ThreadPool& a = shared_pool();
  ThreadPool& b = shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

TEST(SharedPool, ReusedAcrossParallelForCalls) {
  // parallel_for must not spin up transient pools: both calls drain through
  // the same shared workers, and the pool stays usable afterwards.
  std::atomic<int> count{0};
  parallel_for(64, [&](int) { count.fetch_add(1); });
  parallel_for(64, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 128);
  shared_pool().wait_idle();  // must not hang or rethrow
}

TEST(InParallelRegion, FalseOutsideTrueInside) {
  EXPECT_FALSE(in_parallel_region());
  std::atomic<int> inside{0};
  parallel_for(8, [&](int) {
    if (in_parallel_region()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  // A nested parallel_for must degrade to an inline loop (no new shards on
  // the already-busy pool) — otherwise a small pool deadlocks waiting on
  // itself. 8x16 indices must all run exactly once.
  std::vector<std::atomic<int>> hits(128);
  parallel_for(8, [&](int outer) {
    EXPECT_TRUE(in_parallel_region());
    parallel_for(16, [&](int inner) {
      hits[static_cast<std::size_t>(outer * 16 + inner)].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedExceptionPropagatesToOuterCaller) {
  EXPECT_THROW(parallel_for(4,
                            [&](int outer) {
                              parallel_for(4, [&](int inner) {
                                if (outer == 2 && inner == 3)
                                  throw std::runtime_error("inner boom");
                              });
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ParallelSumMatchesSerial) {
  const int n = 1000;
  std::vector<long> parts(static_cast<std::size_t>(n));
  parallel_for(n, [&](int i) { parts[static_cast<std::size_t>(i)] = static_cast<long>(i) * i; });
  const long got = std::accumulate(parts.begin(), parts.end(), 0L);
  long want = 0;
  for (int i = 0; i < n; ++i) want += static_cast<long>(i) * i;
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace cpsguard::util
