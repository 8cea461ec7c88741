#include "src/object/lock_manager.h"

#include "src/obs/metrics.h"

namespace tdb {

bool LockManager::Compatible(const LockState& state, uint64_t owner,
                             LockMode mode) const {
  for (const auto& [holder, held] : state.holders) {
    if (holder == owner) {
      continue;
    }
    if (mode == LockMode::kExclusive || held == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Status LockManager::Acquire(uint64_t owner, const ChunkId& id, LockMode mode) {
  const bool timed = obs::MetricsRegistry::Instance().enabled();
  const auto started = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  bool contended = false;
  auto record = [&](bool granted) {
    obs::Count(granted ? "lock.acquires" : "lock.timeouts");
    if (contended) {
      obs::Count("lock.contended");
    }
    if (timed) {
      obs::Observe("lock.wait_us",
                   std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - started)
                       .count());
    }
  };

  std::unique_lock<std::mutex> lock(mu_);
  // References into the map stay valid across rehashes and other erases;
  // this entry itself cannot be erased while we hold mu_ or have registered
  // as a waiter.
  LockState& state = locks_[id];
  auto deadline = std::chrono::steady_clock::now() + timeout_;

  auto try_grant = [&]() {
    auto held = state.holders.find(owner);
    if (held != state.holders.end() &&
        (held->second == LockMode::kExclusive || mode == LockMode::kShared)) {
      return true;  // already strong enough
    }
    if (held == state.holders.end() && state.upgrader.has_value()) {
      return false;  // a pending upgrade goes first
    }
    if (Compatible(state, owner, mode)) {
      state.holders[owner] = mode;
      return true;
    }
    return false;
  };
  // Ends this owner's pending upgrade, if it has one, and wakes the shared
  // requesters queued behind it.
  auto end_upgrade = [&]() {
    if (state.upgrader == owner) {
      state.upgrader.reset();
      if (state.waiters > 0) {
        cv_.notify_all();
      }
    }
  };

  while (true) {
    if (try_grant()) {
      end_upgrade();
      record(/*granted=*/true);
      return OkStatus();
    }
    if (mode == LockMode::kExclusive && state.holders.count(owner) > 0) {
      if (!state.upgrader.has_value()) {
        state.upgrader = owner;
      } else if (*state.upgrader != owner) {
        // The other upgrader waits for our shared lock as we would wait for
        // its: fail now instead of at the timeout.
        obs::Count("lock.upgrade_conflicts");
        record(/*granted=*/false);
        return TimeoutError("lock upgrade on " + id.ToString() +
                            " conflicts with another upgrade (deadlock, "
                            "transaction should abort)");
      }
    }
    contended = true;
    ++state.waiters;
    std::cv_status wait = cv_.wait_until(lock, deadline);
    --state.waiters;
    if (wait == std::cv_status::timeout) {
      // The lock may have been released in the same instant the deadline
      // expired (the broadcast and the timeout race); grant rather than
      // fail spuriously if it is free now.
      if (try_grant()) {
        end_upgrade();
        record(/*granted=*/true);
        return OkStatus();
      }
      end_upgrade();
      // Deregister cleanly: if we were the last party interested in this
      // id, drop the now-empty state before surfacing the timeout.
      if (state.holders.empty() && state.waiters == 0) {
        locks_.erase(id);
      }
      record(/*granted=*/false);
      return TimeoutError("lock wait timed out on " + id.ToString() +
                          " (possible deadlock, transaction should abort)");
    }
  }
}

void LockManager::ReleaseAll(uint64_t owner) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = locks_.begin(); it != locks_.end();) {
      if (it->second.holders.erase(owner) > 0 && it->second.waiters > 0) {
        wake = true;
      }
      if (it->second.upgrader == owner) {
        it->second.upgrader.reset();
      }
      if (it->second.holders.empty() && it->second.waiters == 0) {
        it = locks_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Broadcast (rather than signal) because waiters wait for different ids
  // on one condition variable — but only when a freed id had waiters.
  if (wake) {
    cv_.notify_all();
  }
}

size_t LockManager::locked_object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t held = 0;
  for (const auto& [id, state] : locks_) {
    if (!state.holders.empty()) {
      ++held;
    }
  }
  return held;
}

}  // namespace tdb
