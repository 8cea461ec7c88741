// A small worker pool for blocking tasks: the server runs each live session
// on one of its workers (src/server/server.h).

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tdb {

// The host's hardware thread count, as the benchmarks report it; always at
// least 1 (std::thread::hardware_concurrency may return 0).
size_t HardwareConcurrency();

class ThreadPool {
 public:
  // Spawns `num_workers` threads.
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Queues a task for a worker; a task may block. Tasks still queued at
  // destruction run to completion before the destructor returns; with zero
  // workers nothing ever runs, so Submit requires at least one worker.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tdb

#endif  // SRC_COMMON_THREAD_POOL_H_
