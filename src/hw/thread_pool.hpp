// Fixed-size thread pool with a static-partition parallel_for.
//
// This is the execution substrate for the "mobile CPU" measured path. RNN
// inference dispatches hundreds of sub-millisecond matvecs per frame, so
// dispatch latency dominates unless workers stay hot: workers spin briefly
// on an atomic generation counter before sleeping on a condition variable,
// tasks are claimed with an atomic cursor, and the calling thread helps
// execute — so a busy pool dispatches without a condvar round trip.
//
// A worker joins a job only under the mutex, where it takes the job's
// task list and registers as a participant; run_all retires the job
// under the same mutex and waits for every participant to leave before
// it returns. So a late waker joins whichever job is open when it takes
// the lock, or none, and the task list and claim cursor never change
// under a participant.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace rtmobile {

/// A contiguous range of CPU cores, the placement hint the sharded
/// serving layer uses to keep engine replicas from fighting over cores:
/// shard s gets [s * threads_per_shard, ...) and pins its pool there.
struct CoreRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` persistent workers (>= 1). When `affinity` is set,
  /// spawned workers are pinned round-robin onto that core range
  /// (best-effort: unsupported platforms and invalid cores are ignored).
  /// Core `affinity->begin` is left for the calling thread, which
  /// participates in every job and can pin itself via
  /// pin_current_thread().
  explicit ThreadPool(std::size_t threads,
                      std::optional<CoreRange> affinity = std::nullopt);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (the calling thread counts as one worker).
  [[nodiscard]] std::size_t thread_count() const {
    return configured_threads_;
  }

  /// Splits [0, n) into one contiguous chunk per worker and runs
  /// fn(chunk_begin, chunk_end) on each; blocks until all chunks finish.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs `tasks` concurrently across the pool (the caller participates);
  /// blocks until all complete. Not reentrant from inside a task.
  void run_all(const std::vector<std::function<void()>>& tasks);

  /// A sensible default worker count for this host (hardware_concurrency,
  /// at least 1, capped at 16 to stay in smartphone-core territory).
  [[nodiscard]] static std::size_t default_thread_count();

  /// Best-effort pin of the calling thread to one core; returns false when
  /// pinning is unsupported on this platform or the core does not exist.
  static bool pin_current_thread(std::size_t core);

 private:
  void worker_loop();
  /// Claims and runs `tasks` entries through next_ until none are left.
  void drain(const std::vector<std::function<void()>>& tasks);

  std::vector<std::thread> threads_;  // the caller is the extra worker
  std::size_t configured_threads_ = 1;

  // Bumped (under mutex_) for every published job and at shutdown;
  // idle workers spin on it without the lock.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> shutting_down_{false};
  // The job slot. tasks_ is written by run_all and read by joining
  // workers, both under mutex_; non-null only while a job is open.
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  // Workers holding the current job's task list. Changed only under
  // mutex_; run_all also reads it lock-free while spinning.
  std::atomic<std::size_t> participants_{0};
  std::atomic<std::size_t> next_{0};       // claim cursor into *tasks_
  std::atomic<std::size_t> remaining_{0};  // tasks not yet finished

  std::mutex mutex_;  // guards the job slot, sleeping/waking and error_
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::exception_ptr error_;
};

}  // namespace rtmobile
