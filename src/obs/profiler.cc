#include "src/obs/profiler.h"

#include <algorithm>
#include <string_view>

namespace tdb {

namespace {
constexpr std::string_view kModulePrefix = "module.";

thread_local ProfileScope* g_top = nullptr;
}  // namespace

std::vector<Profiler::Entry> Profiler::Modules(
    const std::vector<obs::MetricsRegistry::HistogramSnapshot>& histograms) {
  std::vector<Entry> out;
  for (const auto& h : histograms) {
    if (h.name.starts_with(kModulePrefix)) {
      out.push_back(
          Entry{h.name.substr(kModulePrefix.size()), h.sum, h.count});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Entry& x, const Entry& y) {
    return x.total_us > y.total_us;
  });
  return out;
}

Profiler& Profiler::Instance() {
  static Profiler instance;
  return instance;
}

std::vector<Profiler::Entry> Profiler::Snapshot() const {
  return Modules(obs::MetricsRegistry::Instance().Histograms());
}

ProfileScope::ProfileScope(const char* histogram) : histogram_(histogram) {
  if (!obs::MetricsRegistry::Instance().enabled()) {
    return;
  }
  active_ = true;
  parent_ = g_top;
  Clock::time_point now = Clock::now();
  if (parent_ != nullptr) {
    // Pause the parent: bank its on-top interval.
    parent_->self_us_ +=
        std::chrono::duration<double, std::micro>(now - parent_->started_)
            .count();
  }
  started_ = now;
  g_top = this;
}

ProfileScope::~ProfileScope() {
  if (!active_) {
    return;
  }
  Clock::time_point now = Clock::now();
  self_us_ +=
      std::chrono::duration<double, std::micro>(now - started_).count();
  obs::MetricsRegistry::Instance().Observe(histogram_, self_us_);
  g_top = parent_;
  if (parent_ != nullptr) {
    // Resume the parent's on-top interval.
    parent_->started_ = now;
  }
}

}  // namespace tdb
