// Group commit for concurrent transactions.
//
// The chunk store serializes commits under one mutex, and each commit pays
// the full Merkle/crypto/flush path (commit record, leader updates, trusted
// counter or register write). When many transactions commit concurrently,
// that cost can be amortized: callers park their already-built batches on a
// queue, the caller at the front becomes the *leader*, coalesces every
// queued batch (up to a cap) into one chunk-store commit, and wakes each
// follower only after the shared flush — so an acknowledged commit is
// exactly as durable as a solo one, but N concurrent commits perform one
// chunk-store commit instead of N.
//
// Correctness leans on two-phase locking above this layer: every parked
// transaction still holds exclusive locks on its write set while it waits,
// so merged batches touch disjoint chunk ids and the combined batch is
// equivalent to any serial order of its members. The one visible semantic
// difference from solo commits is failure coupling: if the merged commit
// fails (out of space, I/O error, poisoned store), every member of that
// batch fails with the same status.
//
// Queues chain: a queue constructed with a `next` queue submits its merged
// batch there instead of to the chunk store. The sharded service uses this
// for two-level group commit — each partition engine runs its own queue
// (per-partition leader), and every engine leader parks on one store-level
// combiner queue, which merges batches from *different* partitions (disjoint
// by construction: a partition is served by exactly one engine) into a
// single chunk-store commit. One flush then amortizes across partitions as
// well as across transactions.

#ifndef SRC_OBJECT_GROUP_COMMIT_H_
#define SRC_OBJECT_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "src/chunk/chunk_store.h"

namespace tdb {

// Most transactions an object store's queue leader merges into one batch,
// and most engine batches the sharded service's store-level combiner merges
// into one chunk-store commit.
inline constexpr size_t kGroupCommitMaxBatch = 64;
inline constexpr size_t kCombineMaxBatch = 256;

class GroupCommitQueue {
 public:
  // `chunks` must outlive the queue. `max_batch` caps how many waiting
  // transactions one leader may absorb (>= 1). When `next` is non-null the
  // leader submits its merged batch to `next` (which must also outlive this
  // queue) instead of committing it directly; chains must be acyclic.
  GroupCommitQueue(ChunkStore* chunks, size_t max_batch,
                   GroupCommitQueue* next = nullptr);

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
  const size_t max_batch_;
  GroupCommitQueue* const next_;  // null = commit straight to the store

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Waiters in arrival order; the front waiter is the leader. Entries point
  // into the stack frames of blocked Commit calls.
  std::deque<Waiter*> queue_;
};

}  // namespace tdb

#endif  // SRC_OBJECT_GROUP_COMMIT_H_
