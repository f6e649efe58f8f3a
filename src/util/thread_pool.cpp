#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/logging.h"

namespace cpsguard::util {

namespace {

// Set for shared-pool workers (for their whole lifetime) and for any thread
// while it executes a parallel_for shard. Either way, a parallel_for issued
// from such a thread must run inline: fanning out again would queue work
// behind a blocked worker (deadlock risk on small pools) and oversubscribe
// the machine.
thread_local bool tl_in_parallel_region = false;

std::atomic<std::size_t> g_max_parallelism{0};
std::atomic<bool> g_shared_pool_started{false};

// Pool/fan-out telemetry, resolved once. Constructing this (and therefore
// the Registry singleton) before any ThreadPool spawns workers guarantees
// the registry outlives every pool: workers may record metrics right up to
// the join in ~ThreadPool.
struct PoolMetrics {
  obs::Counter& tasks_submitted;
  obs::Counter& tasks_executed;
  obs::Histogram& task_seconds;
  obs::Histogram& idle_seconds;
  obs::Counter& parallel_for_calls;
  obs::Counter& parallel_for_inline;
  obs::Histogram& parallel_for_shards;
  obs::Counter& failures_suppressed;
  obs::Counter& deadline_skipped;

  static PoolMetrics& get() {
    static PoolMetrics metrics{
        obs::Registry::instance().counter("threadpool.tasks_submitted"),
        obs::Registry::instance().counter("threadpool.tasks_executed"),
        obs::Registry::instance().histogram("threadpool.task_seconds"),
        obs::Registry::instance().histogram("threadpool.idle_seconds"),
        obs::Registry::instance().counter("parallel_for.calls"),
        obs::Registry::instance().counter("parallel_for.inline_calls"),
        obs::Registry::instance().histogram("parallel_for.shards"),
        obs::Registry::instance().counter("threadpool.failures_suppressed"),
        obs::Registry::instance().counter("threadpool.deadline_skipped"),
    };
    return metrics;
  }
};

// Per-call bookkeeping for one parallel_for: a work-stealing index counter
// shared by the caller and the helper tasks, plus a latch the caller waits
// on. Lives on the caller's stack; the caller never returns before
// `pending` drops to zero, so references from helper tasks stay valid.
struct ForState {
  const std::function<void(int)>* fn = nullptr;
  int n = 0;
  std::atomic<int> next{0};
  std::mutex mutex;
  std::condition_variable cv_done;
  int pending = 0;
  int failed = 0;
  std::exception_ptr first_error;
};

// Pull indices until the counter runs dry. All iterations complete even if
// some throw; the first exception is kept and rethrown, the rest are
// counted into threadpool.failures_suppressed.
void run_shard(ForState& st) {
  const bool saved = tl_in_parallel_region;
  tl_in_parallel_region = true;
  for (;;) {
    const int i = st.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st.n) break;
    try {
      (*st.fn)(i);
    } catch (...) {
      const std::scoped_lock lock(st.mutex);
      ++st.failed;
      if (!st.first_error) st.first_error = std::current_exception();
    }
  }
  tl_in_parallel_region = saved;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  PoolMetrics::get();  // force Registry construction before workers exist
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
#endif
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::keep_off_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpus_.size() < 2 ||
      off_cpu_.exchange(cpu, std::memory_order_relaxed) == cpu) {
    return;
  }
  cpu_set_t others;
  CPU_ZERO(&others);
  for (const int c : cpus_) {
    if (c != cpu) CPU_SET(c, &others);
  }
  for (std::thread& w : workers_) {
    pthread_setaffinity_np(w.native_handle(), sizeof others, &others);
  }
#else
  (void)cpu;
#endif
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  expects(static_cast<bool>(task), "task must be callable");
  PoolMetrics::get().tasks_submitted.increment();
  {
    const std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::submit(std::function<void()> task, TaskOptions options) {
  expects(static_cast<bool>(task), "task must be callable");
  submit([task = std::move(task), options = std::move(options)] {
    if (options.deadline.expired()) {
      // Soft-deadline watchdog: a task whose budget is already gone is not
      // started at all — it fails fast and cheaply instead.
      PoolMetrics::get().deadline_skipped.increment();
      throw DeadlineExceeded("deadline expired before task start: " +
                             options.site);
    }
    const detail::ScopedTaskDeadline scope(options.deadline);
    if (options.retry.max_attempts > 1) {
      retry_call(options.retry, options.site, task);
    } else {
      task();
    }
  });
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  const std::size_t suppressed = failed_tasks_ > 1 ? failed_tasks_ - 1 : 0;
  failed_tasks_ = 0;
  if (suppressed > 0) {
    suppressed_total_ += suppressed;
    PoolMetrics::get().failures_suppressed.add(suppressed);
  }
  if (first_error_) {
    std::exception_ptr err;
    std::swap(err, first_error_);
    lock.unlock();
    if (suppressed > 0) {
      log_warn("thread pool: ", suppressed,
               " additional task failure(s) suppressed behind the first");
    }
    std::rethrow_exception(err);
  }
}

std::uint64_t ThreadPool::suppressed_failures_total() const {
  const std::scoped_lock lock(mutex_);
  return suppressed_total_;
}

void ThreadPool::worker_loop() {
  tl_in_parallel_region = true;  // nested parallel_for on a worker runs inline
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      const auto wait_start = std::chrono::steady_clock::now();
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      metrics.idle_seconds.record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wait_start)
              .count());
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr error;
    const auto task_start = std::chrono::steady_clock::now();
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    metrics.task_seconds.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      task_start)
            .count());
    metrics.tasks_executed.increment();
    {
      const std::scoped_lock lock(mutex_);
      if (error) {
        ++failed_tasks_;
        if (!first_error_) first_error_ = error;
      }
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& shared_pool() {
  g_shared_pool_started.store(true, std::memory_order_relaxed);
  static ThreadPool pool;  // one worker per hardware thread, process lifetime
  return pool;
}

bool shared_pool_initialized() {
  return g_shared_pool_started.load(std::memory_order_relaxed);
}

std::size_t effective_parallelism() {
  const auto hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t cap = max_parallelism();
  return cap == 0 ? hw : std::min(cap, hw);
}

bool in_parallel_region() { return tl_in_parallel_region; }

void set_max_parallelism(std::size_t n) {
  g_max_parallelism.store(n, std::memory_order_relaxed);
}

std::size_t max_parallelism() {
  return g_max_parallelism.load(std::memory_order_relaxed);
}

void parallel_for(int n, const std::function<void(int)>& fn,
                  std::size_t max_shards) {
  expects(n >= 0, "parallel_for size must be non-negative");
  if (n == 0) return;
  const std::size_t global_cap = max_parallelism();
  if (global_cap != 0) {
    max_shards = max_shards == 0 ? global_cap : std::min(max_shards, global_cap);
  }
  if (max_shards == 1 || n == 1 || tl_in_parallel_region) {
    PoolMetrics::get().parallel_for_inline.increment();
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  ThreadPool& pool = shared_pool();
  std::size_t helpers = pool.size();
  if (max_shards != 0) helpers = std::min(helpers, max_shards - 1);
  helpers = std::min(helpers, static_cast<std::size_t>(n));

  PoolMetrics& metrics = PoolMetrics::get();
  metrics.parallel_for_calls.increment();
  metrics.parallel_for_shards.record(static_cast<double>(helpers + 1));

#if defined(__linux__)
  pool.keep_off_cpu(sched_getcpu());
#endif
  ForState st;
  st.fn = &fn;
  st.n = n;
  st.pending = static_cast<int>(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([&st] {
      run_shard(st);
      const std::scoped_lock lock(st.mutex);
      if (--st.pending == 0) st.cv_done.notify_all();
    });
  }
  run_shard(st);  // the caller works too instead of just blocking
  {
    std::unique_lock lock(st.mutex);
    st.cv_done.wait(lock, [&st] { return st.pending == 0; });
  }
  if (st.failed > 1) {
    metrics.failures_suppressed.add(static_cast<std::uint64_t>(st.failed - 1));
  }
  if (st.first_error) std::rethrow_exception(st.first_error);
}

}  // namespace cpsguard::util
