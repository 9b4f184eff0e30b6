#ifndef SPA_COMMON_THREAD_POOL_H_
#define SPA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

/// \file
/// Fixed-size worker pool used to score user populations in parallel
/// (the paper's "millions of users" scalability claim).

namespace spa {

/// \brief Simple fixed-size thread pool with a blocking task queue.
class ThreadPool {
 public:
  /// Starts `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t thread_count() const { return workers_.size(); }

  /// Tasks submitted but not yet picked up by a worker (monitoring
  /// accessor; note that layers which park one permanent task per
  /// worker — e.g. the streaming pipeline's drain loops — keep this
  /// queue empty and expose their own depth counters instead).
  size_t pending_tasks() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Runs `fn(i)` for i in [0, n) across the pool in contiguous chunks and
/// waits for completion. `fn` must be thread-safe. When there is only
/// one chunk (a one-worker pool, or n == 1) it runs on the calling
/// thread, in index order.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace spa

#endif  // SPA_COMMON_THREAD_POOL_H_
