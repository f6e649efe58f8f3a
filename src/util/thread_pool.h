// Fixed-size thread pool plus a blocking parallel_for used to fan experiment
// sweeps (per-patient campaigns, per-model attacks, per-sweep-point
// evaluations) across cores. parallel_for runs on a lazily-initialized
// process-wide shared pool so fan-outs pay thread spawn/teardown once per
// process, not once per call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/deadline.h"
#include "util/retry.h"

namespace cpsguard::util {

/// Failure-handling knobs for one submitted task.
struct TaskOptions {
  /// max_attempts > 1 re-runs the task on retryable errors (transient
  /// faults, injected chaos) with the policy's deterministic backoff.
  RetryPolicy retry{.max_attempts = 1};
  /// Soft deadline: an already-expired task is skipped (it fails with
  /// DeadlineExceeded without running); while running, the task can poll
  /// util::check_deadline() cooperatively. Unset → no deadline.
  Deadline deadline;
  /// Label for retry backoff derivation, chaos keys, and error messages.
  std::string site = "pool.task";
};

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. A throwing task does not terminate its worker: the
  /// first exception is captured and rethrown by the next wait_idle() call;
  /// later ones are counted (see wait_idle) rather than silently dropped.
  /// Exceptions from tasks never waited on are discarded at destruction.
  void submit(std::function<void()> task);

  /// Enqueue with retry/deadline handling wrapped around the task.
  void submit(std::function<void()> task, TaskOptions options);

  /// Block until every submitted task has finished, then rethrow the first
  /// exception any of them threw (clearing it, so the pool is reusable).
  /// Failures beyond the first are aggregated instead of vanishing: their
  /// count is added to the `threadpool.failures_suppressed` obs counter and
  /// to suppressed_failures_total(), and the first error's message is what
  /// propagates.
  void wait_idle();

  /// Cumulative count of task failures this pool dropped after the first
  /// one in each wait_idle() cycle.
  [[nodiscard]] std::uint64_t suppressed_failures_total() const;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Keep every worker off `cpu` from now on, leaving it to a caller that
  /// works beside the pool (parallel_for). Some schedulers queue a woken
  /// worker on its waker's busy CPU instead of an idle one, where it cannot
  /// start until the caller blocks or is preempted, so the fan-out runs
  /// serially. Linux only; a no-op elsewhere, when `cpu` is negative, when
  /// the pool has no other CPU, or when `cpu` is already the one kept off.
  void keep_off_cpu(int cpu);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<int> cpus_;  // the CPUs the constructing thread could run on
  std::atomic<int> off_cpu_{-1};
  std::deque<std::function<void()>> queue_;
  std::exception_ptr first_error_;
  std::size_t failed_tasks_ = 0;  // failures since the last wait_idle rethrow
  std::uint64_t suppressed_total_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// The process-wide pool parallel_for fans out on, lazily constructed with
/// one worker per hardware thread on first use and reused for the rest of
/// the process (no per-call spawn/teardown).
ThreadPool& shared_pool();

/// Process-wide cap on how many shards a parallel_for may run concurrently
/// (counting the calling thread). 0 restores the default (pool-sized
/// fan-outs); 1 forces fully serial inline execution — the knob the golden
/// determinism suite and the benches' --threads flag use. Outputs are
/// bit-identical at any setting; only scheduling changes.
void set_max_parallelism(std::size_t n);
[[nodiscard]] std::size_t max_parallelism();

/// Parallelism the next top-level parallel_for would actually get: the
/// set_max_parallelism() cap clamped to hardware concurrency (the shared
/// pool's size). Computed WITHOUT forcing the lazily-constructed shared
/// pool into existence — callers sizing their own fan-out (e.g. the serve
/// benches' thread count) must not spawn a pool a serial run will never
/// use.
[[nodiscard]] std::size_t effective_parallelism();

/// True once shared_pool() has been constructed. Diagnostic/test hook for
/// the "serial callers never instantiate the pool" contract.
[[nodiscard]] bool shared_pool_initialized();

/// True when the calling thread is a shared-pool worker or is currently
/// executing a parallel_for shard — i.e. when a further parallel_for would
/// run inline instead of fanning out again.
bool in_parallel_region();

/// Run fn(i) for i in [0, n) across the shared pool (the calling thread
/// participates too); rethrows the first captured exception after all
/// iterations complete. Nested calls — from inside a shard or from a pool
/// worker — run inline, so parallel sections can safely call parallel code
/// without deadlock or oversubscription. `max_shards` caps the concurrent
/// shards including the caller: 0 uses every pool worker, 1 runs inline
/// (useful under sanitizers and in tests). The effective cap is the smaller
/// of `max_shards` and the process-wide set_max_parallelism() value.
void parallel_for(int n, const std::function<void(int)>& fn,
                  std::size_t max_shards = 0);

}  // namespace cpsguard::util
