// Test helpers for the metrics registry, the one place the program counts
// and times: a scope that records for the test that holds it, and the rule
// every metric name keeps.

#ifndef TESTS_METRICS_TEST_UTIL_H_
#define TESTS_METRICS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <regex>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"

namespace tdb {

// Counts are process-wide and recorded only while the registry is enabled.
// A test that reads them holds one of these around the work: it resets and
// enables the registry, and disables it at the end.
class ScopedMetrics {
 public:
  ScopedMetrics() {
    Registry().Reset();
    Registry().Enable();
  }
  ~ScopedMetrics() { Registry().Disable(); }

  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

  uint64_t Counter(const std::string& name) const {
    return Registry().GetCounter(name);
  }

 private:
  static obs::MetricsRegistry& Registry() {
    return obs::MetricsRegistry::Instance();
  }
};

// One name, one kind: a metric is a counter, a gauge or a histogram, never
// two of them (after a reset a counter restarts where a gauge of the same
// name would keep its reading), and every name has the dotted lower-case
// form.
inline void ExpectOneKindAndTheDottedForm(const obs::StatsSnapshot& s) {
  std::map<std::string, int> kinds;
  for (const auto& [name, n] : s.counters) {
    ++kinds[name];
  }
  for (const auto& [name, v] : s.gauges) {
    ++kinds[name];
  }
  for (const auto& h : s.histograms) {
    ++kinds[h.name];
  }
  const std::regex dotted("^[a-z0-9_]+(\\.[a-z0-9_]+)+$");
  for (const auto& [name, n] : kinds) {
    EXPECT_EQ(n, 1) << name << " is published as more than one kind";
    EXPECT_TRUE(std::regex_match(name, dotted)) << name;
  }
}

// Group commit counts each write transaction once, however many partitions
// or leaders it passed: the batch sizes sum to the write transactions
// committed, each of them waited once, and every leader pass both counts a
// group commit and observes one batch.
inline void ExpectEachWriteCommitCountedOnce(uint64_t write_txns) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  uint64_t batches = 0;
  double batched_txns = 0;
  uint64_t waits = 0;
  for (const auto& h : registry.Histograms()) {
    if (h.name == "object.group_commit_batch") {
      batches = h.count;
      batched_txns = h.sum;
    } else if (h.name == "object.group_commit_wait_us") {
      waits = h.count;
    }
  }
  EXPECT_EQ(batched_txns, static_cast<double>(write_txns));
  EXPECT_EQ(waits, write_txns);
  EXPECT_EQ(registry.GetCounter("object.group_commits"), batches);
}

}  // namespace tdb

#endif  // TESTS_METRICS_TEST_UTIL_H_
