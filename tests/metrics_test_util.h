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

}  // namespace tdb

#endif  // TESTS_METRICS_TEST_UTIL_H_
