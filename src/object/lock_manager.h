// Two-phase locking for the object store (§7): shared/exclusive locks on
// object ids, with lock-wait timeouts as the deadlock-breaking mechanism
// ("implements two-phase locking on objects and breaks deadlocks using
// timeouts"). Originally geared to low concurrency; hardened for the
// networked service layer, where many sessions block on the same ids:
// waiters are tracked per lock so a timed-out waiter deregisters itself
// (and garbage-collects an empty lock state) before returning kTimeout,
// a release only broadcasts when someone is actually waiting, and
// acquires/timeouts/wait latency are exported through the MetricsRegistry
// (`lock.acquires`, `lock.contended`, `lock.timeouts`, `lock.wait_us`,
// `lock.upgrade_conflicts`).
//
// Upgrades (shared → exclusive by a holder) follow two rules, so that
// read-then-write transactions on one hot object cannot livelock: while one
// holder waits to upgrade, new shared requests queue behind it instead of
// re-taking the lock, and a second holder asking to upgrade the same object
// fails at once, since each would wait for the other's shared lock.

#ifndef SRC_OBJECT_LOCK_MANAGER_H_
#define SRC_OBJECT_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/chunk/chunk_id.h"
#include "src/common/status.h"

namespace tdb {

enum class LockMode { kShared, kExclusive };

class LockManager {
 public:
  explicit LockManager(std::chrono::milliseconds timeout) : timeout_(timeout) {}

  // Blocks until the lock is granted or the timeout elapses (kTimeout).
  // Re-acquisition and shared→exclusive upgrade by the same owner are
  // supported. An upgrade while another holder is upgrading the same id
  // fails at once with kTimeout; other deadlocks are resolved by the
  // timeout.
  Status Acquire(uint64_t owner, const ChunkId& id, LockMode mode);

  // Releases everything `owner` holds (end of the two-phase protocol).
  void ReleaseAll(uint64_t owner);

  // Ids currently held by at least one owner (ids with only waiters are
  // not counted).
  size_t locked_object_count() const;

 private:
  struct LockState {
    std::map<uint64_t, LockMode> holders;
    // Threads parked in Acquire on this id. A non-zero count keeps the
    // entry alive (waiters hold a reference to it across cv waits) and is
    // what makes a release broadcast worthwhile.
    size_t waiters = 0;
    // The holder waiting to upgrade to exclusive, if any.
    std::optional<uint64_t> upgrader;
  };

  bool Compatible(const LockState& state, uint64_t owner, LockMode mode) const;

  std::chrono::milliseconds timeout_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ChunkId, LockState> locks_;
};

}  // namespace tdb

#endif  // SRC_OBJECT_LOCK_MANAGER_H_
