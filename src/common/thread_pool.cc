#include "src/common/thread_pool.h"

#include <sched.h>

#include <cassert>

namespace tdb {

size_t HardwareConcurrency() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

size_t AffinityCpus() {
  static const size_t cpus = [] {
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
      return static_cast<size_t>(CPU_COUNT(&set));
    }
#endif
    return HardwareConcurrency();
  }();
  return cpus;
}

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  assert(!workers_.empty() && "Submit on a pool with no workers never runs");
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

}  // namespace tdb
