#include "common/thread_pool.h"

#include <algorithm>

namespace spa {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

size_t ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t workers = pool->thread_count();
  const size_t chunk = std::max<size_t>(1, (n + workers - 1) / workers);
  if (chunk >= n) {
    // One chunk: a worker would run it while this thread sleeps, at the
    // cost of two cross-thread wake-ups.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    pool->Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  pool->Wait();
}

}  // namespace spa
