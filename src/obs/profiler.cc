#include "src/obs/profiler.h"

#include <map>

namespace tdb {

namespace {
thread_local ProfileScope* g_top = nullptr;
}  // namespace

// Samples for one thread. Its mutex is uncontended on the hot path (only
// Snapshot/Reset ever take it from another thread).
struct Profiler::ThreadBlock {
  std::mutex mu;
  std::map<std::string, Entry> entries;
};

Profiler& Profiler::Instance() {
  static Profiler instance;
  return instance;
}

Profiler::ThreadBlock& Profiler::LocalBlock() {
  thread_local std::shared_ptr<ThreadBlock> block;
  if (block == nullptr) {
    block = std::make_shared<ThreadBlock>();
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.push_back(block);
  }
  return *block;
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : blocks_) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    b->entries.clear();
  }
}

void Profiler::AddSample(const char* module, double us) {
  ThreadBlock& b = LocalBlock();
  std::lock_guard<std::mutex> lock(b.mu);
  Entry& e = b.entries[module];
  e.module = module;
  e.total_us += us;
  e.calls += 1;
}

std::vector<Profiler::Entry> Profiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Entry> merged;
  for (const auto& b : blocks_) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    for (const auto& [name, e] : b->entries) {
      Entry& m = merged[name];
      m.module = name;
      m.total_us += e.total_us;
      m.calls += e.calls;
    }
  }
  std::vector<Entry> out;
  out.reserve(merged.size());
  for (auto& [_, e] : merged) {
    out.push_back(std::move(e));
  }
  return out;
}

ProfileScope::ProfileScope(const char* module) : module_(module) {
  if (!Profiler::Instance().enabled()) {
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
  Profiler::Instance().AddSample(module_, self_us_);
  g_top = parent_;
  if (parent_ != nullptr) {
    // Resume the parent's on-top interval.
    parent_->started_ = now;
  }
}

}  // namespace tdb
