#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"

namespace pp {

thread_local const ThreadPool* ThreadPool::current_pool_ = nullptr;

ThreadPool::ThreadPool(std::size_t num_threads) {
  // Resolve instruments before spawning workers: no worker ever does a
  // registry lookup.
  auto& registry = obs::MetricsRegistry::global();
  obs_task_wait_ = &registry.histogram("pp_threadpool_task_wait_ns");
  collector_ = registry.collect({}, [this](const obs::Emit& emit) {
    std::size_t depth = 0;
    {
      MutexLock lock(mutex_);
      depth = tasks_.size();
    }
    emit("pp_threadpool_queue_depth", depth);
  });
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, Thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::push_task(std::function<void()> fn) {
  Task task;
  task.fn = std::move(fn);
  if (obs::timing_enabled()) {
    task.waited.reset();
    task.timed = true;
  }
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  current_pool_ = this;
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (task.timed) obs_task_wait_->record(task.waited.elapsed_ns());
    task.fn();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (on_worker_thread()) {
    // Nested call from our own worker: every sibling may be equally
    // blocked inside parallel_for, so queued chunks could never be
    // scheduled. Caller-runs keeps nesting deadlock-free (and still
    // parallel at the outermost level).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(count, size() * 4);
  std::atomic<std::size_t> next{0};
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(submit([&, chunk_size, count] {
      for (;;) {
        const std::size_t begin = next.fetch_add(chunk_size);
        if (begin >= count) return;
        const std::size_t end = std::min(begin + chunk_size, count);
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }
    }));
  }
  wait_all(futures);
}

void ThreadPool::wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pp
