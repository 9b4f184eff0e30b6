#ifndef SPA_COMMON_RW_LOCK_H_
#define SPA_COMMON_RW_LOCK_H_

#include <condition_variable>
#include <mutex>

/// \file
/// Writer-priority reader/writer lock. `std::shared_mutex` lets the
/// platform pick the reader/writer preference, and glibc's default
/// prefers readers — under continuous read traffic (exactly what a
/// serving engine sees) a writer can wait unboundedly. Live updates
/// need bounded latency: once a writer announces itself, new readers
/// queue behind it, the writer enters as soon as the active readers
/// drain, and readers resume afterwards.
///
/// Satisfies SharedLockable/Lockable, so `std::shared_lock` /
/// `std::unique_lock` work as usual. Not recursive: a thread holding
/// the shared side must not re-acquire (it would deadlock behind a
/// waiting writer).

namespace spa {

/// \brief Reader/writer mutex that never starves writers.
class WriterPriorityMutex {
 public:
  void lock_shared() {
    std::unique_lock<std::mutex> lock(mu_);
    reader_cv_.wait(lock, [this] {
      return waiting_writers_ == 0 && !writer_active_;
    });
    ++active_readers_;
  }

  void unlock_shared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--active_readers_ == 0 && waiting_writers_ > 0) {
      writer_cv_.notify_one();
    }
  }

  void lock() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_writers_;
    writer_cv_.wait(lock, [this] {
      return active_readers_ == 0 && !writer_active_;
    });
    --waiting_writers_;
    writer_active_ = true;
  }

  void unlock() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      writer_active_ = false;
    }
    // Queued writers go first (priority); otherwise wake the readers.
    writer_cv_.notify_one();
    reader_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable reader_cv_;
  std::condition_variable writer_cv_;
  int active_readers_ = 0;
  int waiting_writers_ = 0;
  bool writer_active_ = false;
};

}  // namespace spa

#endif  // SPA_COMMON_RW_LOCK_H_
