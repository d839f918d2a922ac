// Fixed-size thread pool. Its callers split work by user: the §7.1
// per-user trainer replicas (the paper's "custom parallelism",
// train/rnn_trainer.cpp), the threaded replay train::score_users (and its
// int8 twin), and the per-user example builder in features/examples.cpp.
// Tensor products and the serving tier run on their caller's thread and
// never take a pool (ci/lint.sh --source).
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"
#include "util/thread.hpp"

namespace pp {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to hardware
  /// concurrency, at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future observes its completion (and
  /// propagates exceptions).
  template <typename F>
  std::future<void> submit(F&& task) {
    auto packaged =
        std::make_shared<std::packaged_task<void()>>(std::forward<F>(task));
    std::future<void> result = packaged->get_future();
    push_task([packaged] { (*packaged)(); });
    return result;
  }

  /// Runs fn(i) for i in [0, count), blocking until all are done. Work is
  /// dealt in contiguous chunks to limit scheduling overhead.
  ///
  /// Re-entrancy: when called from one of this pool's own workers (a task
  /// that itself calls parallel_for on the same pool) the chunks run inline
  /// on the caller (caller-runs). Submitting them would deadlock — the
  /// worker would block on futures that only the occupied workers could
  /// ever schedule.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const { return current_pool_ == this; }

  /// Waits for every future, then rethrows the first captured error.
  /// Bailing on the first get() would destroy locals the still-running
  /// tasks reference — always drain before unwinding.
  static void wait_all(std::vector<std::future<void>>& futures);

 private:
  /// One queued unit of work plus its wait-time clock (armed only when obs
  /// timing is on: the stopwatch starts at enqueue, the worker records the
  /// elapsed wait when it dequeues).
  struct Task {
    std::function<void()> fn;
    Stopwatch waited{Stopwatch::Unstarted{}};
    bool timed = false;
  };

  /// Non-template enqueue path: queue push under the mutex + wait-time
  /// bookkeeping.
  void push_task(std::function<void()> fn);

  void worker_loop();

  static thread_local const ThreadPool* current_pool_;

  std::vector<Thread> workers_;
  std::queue<Task> tasks_ PP_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar cv_;
  bool stop_ PP_GUARDED_BY(mutex_) = false;
  // Process-global histogram (shared by all pools), resolved once in the
  // constructor. Observe-only: how long tasks sat queued.
  obs::LatencyHistogram* obs_task_wait_ = nullptr;
  obs::Collector collector_;  // pp_threadpool_queue_depth, summed
};

}  // namespace pp
