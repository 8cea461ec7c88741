// Module-level time accounting used to regenerate Figure 12 ("TDB runtime
// analysis"): per-module wall time where "the time reported for each module
// excludes nested calls to other reported modules".
//
// Implementation: a per-thread stack of active scopes. Entering a scope
// pauses the enclosing scope's accumulation; leaving resumes it. Samples
// accumulate into per-thread blocks (so crypto workers never contend on a
// global lock) and are merged when a snapshot is taken.
//
// Profiling is compiled in but costs only a few nanoseconds per scope when
// disabled (a single relaxed atomic load).

#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tdb {

class Profiler {
 public:
  struct Entry {
    std::string module;
    double total_us = 0.0;
    uint64_t calls = 0;
  };

  static Profiler& Instance();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Reset();
  void AddSample(const char* module, double us);
  std::vector<Entry> Snapshot() const;

 private:
  struct ThreadBlock;

  Profiler() = default;

  // The calling thread's sample block, registered on first use. Blocks are
  // never removed from the registry (threads may outlive a Reset), only
  // cleared, so the thread_local handle in LocalBlock stays valid.
  ThreadBlock& LocalBlock();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards the block registry
  std::vector<std::shared_ptr<ThreadBlock>> blocks_;
};

// RAII scope that attributes elapsed time to `module`, excluding time spent
// in nested ProfileScopes (which is attributed to their own modules).
class ProfileScope {
 public:
  explicit ProfileScope(const char* module);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  const char* module_ = nullptr;
  bool active_ = false;
  double self_us_ = 0.0;       // accumulated while this scope is on top
  Clock::time_point started_;  // start of the current on-top interval
  ProfileScope* parent_ = nullptr;
};

}  // namespace tdb

#endif  // SRC_OBS_PROFILER_H_
