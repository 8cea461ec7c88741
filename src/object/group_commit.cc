#include "src/object/group_commit.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/obs/metrics.h"

namespace tdb {

GroupCommitQueue::GroupCommitQueue(ChunkStore* chunks) : chunks_(chunks) {}

Status GroupCommitQueue::Commit(ChunkStore::Batch batch) {
  if (batch.empty()) {
    // Read-only transaction: ChunkStore::Commit is a no-op for an empty
    // batch, so don't occupy a queue slot.
    return chunks_->Commit(std::move(batch));
  }

  Waiter me;
  me.batch = std::move(batch);

  const bool timed = obs::MetricsRegistry::Instance().enabled();
  const auto enqueued =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};

  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back(&me);
  // Park until a leader finished our batch, or we reach the front and
  // inherit leadership ourselves.
  while (!me.done && queue_.front() != &me) {
    cv_.wait(lock);
  }
  if (timed) {
    obs::Observe("object.group_commit_wait_us",
                 std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - enqueued)
                     .count());
  }
  if (me.done) {
    return me.result;
  }

  // Leader: absorb every batch queued behind us, up to the cap. The waiters
  // we absorb stay parked (their frames, and thus their write batches and
  // their 2PL locks, stay alive) until we mark them done.
  const size_t group_size = std::min(queue_.size(), kGroupCommitMaxBatch);
  std::vector<Waiter*> group(queue_.begin(), queue_.begin() + group_size);
  ChunkStore::Batch merged = std::move(me.batch);
  for (size_t i = 1; i < group_size; ++i) {
    merged.Append(std::move(group[i]->batch));
  }
  lock.unlock();

  Status status = chunks_->Commit(std::move(merged));

  lock.lock();
  for (Waiter* w : group) {
    w->result = status;
    w->done = true;
  }
  queue_.erase(queue_.begin(), queue_.begin() + group_size);
  lock.unlock();
  // Wake the followers we finished and the next leader (if any queued
  // behind the group while we were committing).
  cv_.notify_all();

  obs::Count("object.group_commits");
  obs::Observe("object.group_commit_batch", static_cast<double>(group_size));
  return status;
}

size_t GroupCommitQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace tdb
