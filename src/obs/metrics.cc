#include "src/obs/metrics.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace tdb::obs {

namespace {

struct Hist {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Log-scaled bucket counts (percentile.h layout), allocated on the first
  // observation so idle histogram names cost nothing.
  std::vector<uint64_t> buckets;
};

// The entry for a site's name, made on its first use. The maps compare
// with std::less<>, so a hit builds no std::string.
template <typename Map>
typename Map::mapped_type& EntryFor(Map& map, const char* name) {
  auto it = map.find(std::string_view(name));
  if (it == map.end()) {
    it = map.emplace(name, typename Map::mapped_type{}).first;
  }
  return it->second;
}

}  // namespace

// Metrics for one thread. Its mutex is uncontended on the hot path (only
// merge/Reset ever take it from another thread).
struct MetricsRegistry::ThreadBlock {
  std::mutex mu;
  std::map<std::string, uint64_t, std::less<>> counters;
  std::map<std::string, Hist, std::less<>> histograms;
};

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry instance;
  return instance;
}

MetricsRegistry::ThreadBlock& MetricsRegistry::LocalBlock() {
  thread_local std::shared_ptr<ThreadBlock> block;
  if (block == nullptr) {
    block = std::make_shared<ThreadBlock>();
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.push_back(block);
  }
  return *block;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : blocks_) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    b->counters.clear();
    b->histograms.clear();
  }
  gauges_.clear();
}

void MetricsRegistry::Add(const char* counter, uint64_t n) {
  ThreadBlock& b = LocalBlock();
  std::lock_guard<std::mutex> lock(b.mu);
  EntryFor(b.counters, counter) += n;
}

void MetricsRegistry::SetGauge(const char* gauge, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[gauge] = value;
}

void MetricsRegistry::EraseGauges(const std::string& prefix,
                                  const std::set<std::string>& keep) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.lower_bound(prefix);
  while (it != gauges_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0) {
    it = keep.count(it->first) != 0 ? std::next(it) : gauges_.erase(it);
  }
}

void MetricsRegistry::Observe(const char* histogram, double value) {
  ThreadBlock& b = LocalBlock();
  std::lock_guard<std::mutex> lock(b.mu);
  Hist& h = EntryFor(b.histograms, histogram);
  if (h.count == 0 || value < h.min) {
    h.min = value;
  }
  if (h.count == 0 || value > h.max) {
    h.max = value;
  }
  h.count += 1;
  h.sum += value;
  if (h.buckets.empty()) {
    h.buckets.resize(kNumLatencyBuckets, 0);
  }
  h.buckets[BucketIndex(value)] += 1;
}

uint64_t MetricsRegistry::GetCounter(const std::string& counter) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& b : blocks_) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    auto it = b->counters.find(counter);
    if (it != b->counters.end()) {
      total += it->second;
    }
  }
  return total;
}

std::map<std::string, uint64_t> MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> merged;
  for (const auto& b : blocks_) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    for (const auto& [name, n] : b->counters) {
      merged[name] += n;
    }
  }
  return merged;
}

std::map<std::string, double> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::vector<MetricsRegistry::HistogramSnapshot> MetricsRegistry::Histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> merged;
  for (const auto& b : blocks_) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    for (const auto& [name, h] : b->histograms) {
      HistogramSnapshot& m = merged[name];
      if (m.count == 0 || h.min < m.min) {
        m.min = h.min;
      }
      if (m.count == 0 || h.max > m.max) {
        m.max = h.max;
      }
      m.name = name;
      m.count += h.count;
      m.sum += h.sum;
      if (!h.buckets.empty()) {
        if (m.buckets.empty()) {
          m.buckets.resize(kNumLatencyBuckets, 0);
        }
        for (size_t i = 0; i < h.buckets.size(); ++i) {
          m.buckets[i] += h.buckets[i];
        }
      }
    }
  }
  std::vector<HistogramSnapshot> out;
  out.reserve(merged.size());
  for (auto& [_, h] : merged) {
    out.push_back(std::move(h));
  }
  return out;
}

double MetricsRegistry::HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  // The snapshot tracks the exact extremes, so the endpoints need no bucket
  // interpolation; interior quantiles are bounded by them.
  if (q <= 0.0) {
    return min;
  }
  if (q >= 1.0) {
    return max;
  }
  return std::clamp(BucketQuantile(buckets, count, q), min, max);
}

}  // namespace tdb::obs
