// Process-wide metrics registry: named counters, gauges, and latency
// histograms. It is the only place the program counts or times anything;
// module self time (Figure 12) is a family of its histograms, "module.*"
// (profiler.h).
//
// Counters and histogram samples accumulate into per-thread sharded blocks
// so concurrent threads never contend on a global lock; blocks are merged
// when a snapshot is taken. Gauges are last-writer-wins and live under the
// registry mutex — they are set from slow paths (GetStats, snapshots),
// never from hot loops.
//
// Counts are process-wide, and are recorded only while the registry is
// enabled. The registry is compiled in but costs a single relaxed atomic
// load per site when disabled (use the Count/SetGauge/Observe helpers
// below).

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/obs/percentile.h"

namespace tdb::obs {

class MetricsRegistry {
 public:
  struct HistogramSnapshot {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    // Log-scaled bucket counts (percentile.h layout), merged across thread
    // blocks; empty when the histogram never saw a sample.
    std::vector<uint64_t> buckets;

    double mean() const { return count == 0 ? 0.0 : sum / count; }

    // Interpolated quantile from the buckets, clamped to the exact observed
    // [min, max]. Relative error is bounded by kQuantileRelativeError
    // (6.25%) for values >= 1 (microseconds, in this codebase).
    double Quantile(double q) const;
  };

  static MetricsRegistry& Instance();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Reset();

  // Adds `n` to a named counter on the calling thread's block.
  void Add(const char* counter, uint64_t n = 1);
  // Sets a named gauge (last writer wins).
  void SetGauge(const char* gauge, double value);
  // Erases every gauge whose name starts with `prefix` and is not in `keep`:
  // for a family of gauges whose members come and go.
  void EraseGauges(const std::string& prefix,
                   const std::set<std::string>& keep);
  // Records one sample into a named histogram on the calling thread's block.
  void Observe(const char* histogram, double value);

  // Merged views across all thread blocks.
  uint64_t GetCounter(const std::string& counter) const;
  std::map<std::string, uint64_t> Counters() const;
  std::map<std::string, double> Gauges() const;
  std::vector<HistogramSnapshot> Histograms() const;

 private:
  struct ThreadBlock;

  MetricsRegistry() = default;

  // The calling thread's block, registered on first use. Blocks are never
  // removed (threads may outlive a Reset), only cleared, so the
  // thread_local handle stays valid.
  ThreadBlock& LocalBlock();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards the block registry and gauges_
  std::vector<std::shared_ptr<ThreadBlock>> blocks_;
  std::map<std::string, double> gauges_;
};

// Instrumentation-site helpers: one relaxed atomic load when disabled.
inline void Count(const char* counter, uint64_t n = 1) {
  MetricsRegistry& m = MetricsRegistry::Instance();
  if (m.enabled()) {
    m.Add(counter, n);
  }
}

inline void SetGauge(const char* gauge, double value) {
  MetricsRegistry& m = MetricsRegistry::Instance();
  if (m.enabled()) {
    m.SetGauge(gauge, value);
  }
}

inline void Observe(const char* histogram, double value) {
  MetricsRegistry& m = MetricsRegistry::Instance();
  if (m.enabled()) {
    m.Observe(histogram, value);
  }
}

// RAII latency sampler: observes elapsed microseconds into `histogram` on
// destruction. Reads the clock only when the registry is enabled at
// construction time, so the disabled path is a single relaxed load.
class LatencyTimer {
 public:
  explicit LatencyTimer(const char* histogram)
      : histogram_(histogram),
        armed_(MetricsRegistry::Instance().enabled()) {
    if (armed_) {
      started_ = Clock::now();
    }
  }

  ~LatencyTimer() {
    if (armed_) {
      MetricsRegistry::Instance().Observe(
          histogram_,
          std::chrono::duration<double, std::micro>(Clock::now() - started_)
              .count());
    }
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  const char* histogram_;
  bool armed_;
  Clock::time_point started_;
};

}  // namespace tdb::obs

#endif  // SRC_OBS_METRICS_H_
