// Module-level time accounting used to regenerate Figure 12 ("TDB runtime
// analysis"): per-module wall time where "the time reported for each module
// excludes nested calls to other reported modules".
//
// A ProfileScope observes its module's self time, in microseconds, into the
// MetricsRegistry histogram it names ("module.<name>"). A per-thread stack
// of active scopes does the exclusion: entering a scope pauses the
// enclosing one, and leaving resumes it. Scopes record only while the
// registry is enabled and cost one relaxed atomic load when it is not.
//
// Profiler holds no state. It reads the module histograms back as the
// Figure-12 table.

#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace tdb {

class Profiler {
 public:
  struct Entry {
    std::string module;  // the histogram name without "module."
    double total_us = 0.0;
    uint64_t calls = 0;
  };

  // The module.* histograms among `histograms`, largest total first.
  static std::vector<Entry> Modules(
      const std::vector<obs::MetricsRegistry::HistogramSnapshot>& histograms);

  static Profiler& Instance();

  // Modules() of the registry's current histograms.
  std::vector<Entry> Snapshot() const;

 private:
  Profiler() = default;
};

// RAII scope that observes the elapsed time, excluding time spent in nested
// ProfileScopes, into `histogram` ("module.<name>").
class ProfileScope {
 public:
  explicit ProfileScope(const char* histogram);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  const char* histogram_ = nullptr;
  bool active_ = false;
  double self_us_ = 0.0;       // accumulated while this scope is on top
  Clock::time_point started_;  // start of the current on-top interval
  ProfileScope* parent_ = nullptr;
};

}  // namespace tdb

#endif  // SRC_OBS_PROFILER_H_
