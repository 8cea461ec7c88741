#include "src/server/frame_wait.h"

#include <thread>

#include "src/obs/metrics.h"

namespace tdb::server {

namespace {

// How long a wait polls before it parks. The server answers a one-put write
// frame in 14 us at p50 and about 30 us at p90 (handle + send,
// ycsb-a-wire, 4 clients), so most answers land inside it, and a slower
// one (a lock wait, a group-commit flush) costs at most the budget in CPU.
constexpr std::chrono::microseconds kPollBudget{40};
// The poll yields the CPU this often, so a thread that shares the poller's
// CPU is never kept waiting behind it.
constexpr std::chrono::microseconds kPollSlice{2};

// A spin-wait hint: on x86 it frees the core's pipeline for a sibling
// hyperthread; elsewhere the loop spins plainly.
void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Polls `conn` for up to kPollBudget; true once Recv would not wait.
bool PollReadable(const net::Connection& conn) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto slice_end = start + kPollSlice;
  while (!conn.Readable()) {
    const auto now = Clock::now();
    if (now - start >= kPollBudget) {
      return false;
    }
    if (now >= slice_end) {
      std::this_thread::yield();
      slice_end = Clock::now() + kPollSlice;
    } else {
      CpuRelax();
    }
  }
  return true;
}

}  // namespace

FrameWait FrameWait::ForClient() {
  return FrameWait(/*polls=*/true, "wire.client.parks");
}

FrameWait FrameWait::ForSession(size_t cpus) {
  return FrameWait(/*polls=*/cpus > 1, "wire.session.parks");
}

bool FrameWait::ShouldPoll() {
  if (!polls_) {
    return false;
  }
  if (misses_ < kMissesToBackOff) {
    return true;
  }
  if (++waits_since_poll_ < kBackOffPeriod) {
    return false;
  }
  waits_since_poll_ = 0;
  return true;
}

Result<Bytes> FrameWait::Next(net::Connection& conn,
                              std::chrono::milliseconds timeout) {
  if (ShouldPoll()) {
    if (PollReadable(conn)) {
      misses_ = 0;
      return conn.Recv(timeout);
    }
    ++misses_;
  }
  obs::Count(parks_counter_);
  return conn.Recv(timeout);
}

}  // namespace tdb::server
