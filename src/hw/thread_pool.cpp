#include "hw/thread_pool.hpp"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.hpp"

namespace rtmobile {
namespace {

// Spin budget before a worker sleeps / the caller blocks. Tuned for
// sub-millisecond kernels: ~10-30 us of spinning on current hardware.
constexpr int kSpinIterations = 1 << 14;

inline void spin_pause(int iteration) {
  // Yield occasionally so spinning does not starve co-scheduled threads.
  if ((iteration & 1023) == 1023) std::this_thread::yield();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, std::optional<CoreRange> affinity) {
  RT_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  RT_REQUIRE(!affinity || affinity->count >= 1,
             "thread pool affinity range must be non-empty");
  // The caller participates in every job, so spawn threads-1 workers to
  // keep the total concurrency at `threads`.
  const std::size_t workers = threads - 1;
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i, affinity] {
      if (affinity) {
        // Core begin is reserved for the caller; workers take the rest
        // round-robin so a range narrower than the pool still covers it.
        const std::size_t slot = affinity->count > 1
                                     ? 1 + i % (affinity->count - 1)
                                     : 0;
        pin_current_thread(affinity->begin + slot);
      }
      worker_loop();
    });
  }
  configured_threads_ = threads;
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::drain(const std::vector<std::function<void()>>& tasks) {
  for (;;) {
    const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= tasks.size()) return;
    try {
      tasks[index]();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task: wake the caller if it gave up spinning. Taking the
      // lock orders this against its predicate check.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
      }
      job_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    // Hot path: spin on the generation counter without the lock.
    bool have_work = false;
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      if (generation_.load(std::memory_order_acquire) != seen) {
        have_work = true;
        break;
      }
      spin_pause(spin);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (!have_work) {
      work_ready_.wait(lock, [this, seen] {
        return generation_.load(std::memory_order_relaxed) != seen;
      });
    }
    if (shutting_down_.load(std::memory_order_relaxed)) return;
    // Join whatever job is open now (the slot and generation are read
    // together under the lock); a job that already retired has no task
    // list to join.
    seen = generation_.load(std::memory_order_relaxed);
    const std::vector<std::function<void()>>* tasks = tasks_;
    if (tasks == nullptr) continue;
    participants_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    drain(*tasks);
    lock.lock();
    if (participants_.fetch_sub(1, std::memory_order_release) == 1) {
      job_done_.notify_all();
    }
  }
}

void ThreadPool::run_all(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    RT_ASSERT(tasks_ == nullptr, "nested run_all is not supported");
    error_ = nullptr;
    tasks_ = &tasks;
    next_.store(0, std::memory_order_relaxed);
    remaining_.store(tasks.size(), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_ready_.notify_all();

  // The caller is a worker too — on a 1-thread pool it does all the work.
  drain(tasks);

  // Wait for stragglers: spin briefly, then block.
  const auto finished = [this] {
    return remaining_.load(std::memory_order_acquire) == 0 &&
           participants_.load(std::memory_order_acquire) == 0;
  };
  for (int spin = 0; spin < kSpinIterations && !finished(); ++spin) {
    spin_pause(spin);
  }
  std::exception_ptr to_throw;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Retire the job first so no late waker can join it, then wait for
    // the participants already in: until they leave, the task list and
    // next_ must stay as they are.
    tasks_ = nullptr;
    job_done_.wait(lock, finished);
    to_throw = error_;
    error_ = nullptr;
  }
  if (to_throw) std::rethrow_exception(to_throw);
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(thread_count(), n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * n / workers;
    const std::size_t end = (w + 1) * n / workers;
    tasks.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  run_all(tasks);
}

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 4 : hw, 1, 16);
}

bool ThreadPool::pin_current_thread(std::size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (core >= CPU_SETSIZE) return false;
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace rtmobile
