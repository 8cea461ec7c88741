// Group commit for concurrent transactions.
//
// The chunk store serializes commits under one mutex, and each commit pays
// the full Merkle/crypto/flush path (commit record, leader updates, trusted
// counter or register write). When many transactions commit concurrently,
// that cost can be amortized: callers park their already-built batches on a
// queue, the caller at the front becomes the *leader*, coalesces every
// queued batch (up to kGroupCommitMaxBatch) into one chunk-store commit, and
// wakes each follower only after the shared flush — so an acknowledged
// commit is exactly as durable as a solo one, but N concurrent commits
// perform one chunk-store commit instead of N.
//
// Correctness leans on two-phase locking above this layer: every parked
// transaction still holds exclusive locks on its write set while it waits,
// so merged batches touch disjoint chunk ids and the combined batch is
// equivalent to any serial order of its members. The one visible semantic
// difference from solo commits is failure coupling: if the merged commit
// fails (out of space, I/O error, poisoned store), every member of that
// batch fails with the same status.
//
// A queue may serve several object stores when their lock tables together
// exclude every conflict. The sharded service runs one queue per server
// (EngineRegistry): each partition is served by exactly one engine, so
// batches of different partitions are disjoint and one flush amortizes
// across partitions as well as across transactions. The queue does not
// belong in ChunkStore: two object stores over one partition have lock
// tables that do not exclude each other.

#ifndef SRC_OBJECT_GROUP_COMMIT_H_
#define SRC_OBJECT_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "src/chunk/chunk_store.h"

namespace tdb {

// Most transactions a queue leader merges into one chunk-store commit.
inline constexpr size_t kGroupCommitMaxBatch = 64;

class GroupCommitQueue {
 public:
  // `chunks` must outlive the queue.
  explicit GroupCommitQueue(ChunkStore* chunks);

  // Commits `batch` as part of a coalesced chunk-store commit. Blocks until
  // the batch containing it is durable (or failed); returns the shared
  // commit status. Safe to call from many threads.
  Status Commit(ChunkStore::Batch batch);

  // Transactions currently parked on the queue (including the leader);
  // a point-in-time reading for gauges.
  size_t depth() const;

 private:
  struct Waiter {
    ChunkStore::Batch batch;
    Status result;
    bool done = false;
  };

  ChunkStore* chunks_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Waiters in arrival order; the front waiter is the leader. Entries point
  // into the stack frames of blocked Commit calls.
  std::deque<Waiter*> queue_;
};

}  // namespace tdb

#endif  // SRC_OBJECT_GROUP_COMMIT_H_
