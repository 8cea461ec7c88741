#include "src/shard/partition_engine.h"

#include <utility>

#include "src/obs/metrics.h"

namespace tdb::shard {

const char* PartitionStateName(PartitionState state) {
  switch (state) {
    case PartitionState::kServing:
      return "serving";
    case PartitionState::kDraining:
      return "draining";
    case PartitionState::kMoved:
      return "moved";
  }
  return "unknown";
}

PartitionEngine::PartitionEngine(ChunkStore* chunks, PartitionId partition,
                                 const TypeRegistry* registry,
                                 ObjectStoreOptions options)
    : store_(chunks, partition, registry, options) {}

Status PartitionEngine::AdmitLocked() const {
  if (state_ == PartitionState::kServing) {
    return OkStatus();
  }
  if (!moved_to_.empty()) {
    return MovedError(moved_to_);
  }
  return MovedError("partition " + std::to_string(store_.partition()) +
                    " is being handed off; retry");
}

Result<std::unique_ptr<Transaction>> PartitionEngine::Begin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TDB_RETURN_IF_ERROR(AdmitLocked());
    ++active_txns_;
  }
  return store_.Begin();
}

Result<std::unique_ptr<Transaction>> PartitionEngine::BeginReadOnly() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TDB_RETURN_IF_ERROR(AdmitLocked());
    ++active_txns_;
  }
  Result<std::unique_ptr<Transaction>> txn = store_.BeginReadOnly();
  if (!txn.ok()) {
    TxnFinished();
  }
  return txn;
}

void PartitionEngine::TxnFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_txns_ > 0 && --active_txns_ == 0) {
    drained_cv_.notify_all();
  }
}

Status PartitionEngine::StartDraining(const std::string& target) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != PartitionState::kServing) {
    return FailedPreconditionError(
        "partition " + std::to_string(store_.partition()) + " is " +
        PartitionStateName(state_) + ", cannot start draining");
  }
  state_ = PartitionState::kDraining;
  moved_to_ = target;
  return OkStatus();
}

Status PartitionEngine::ResumeServing() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == PartitionState::kMoved) {
    return FailedPreconditionError("partition " +
                                   std::to_string(store_.partition()) +
                                   " has already moved");
  }
  state_ = PartitionState::kServing;
  moved_to_.clear();
  return OkStatus();
}

Status PartitionEngine::MarkMoved(const std::string& target) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = PartitionState::kMoved;
  moved_to_ = target;
  return OkStatus();
}

bool PartitionEngine::WaitDrained(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return drained_cv_.wait_for(lock, timeout,
                              [this] { return active_txns_ == 0; });
}

PartitionState PartitionEngine::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::string PartitionEngine::moved_to() const {
  std::lock_guard<std::mutex> lock(mu_);
  return moved_to_;
}

size_t PartitionEngine::active_txns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_txns_;
}

EngineRegistry::EngineRegistry(ChunkStore* chunks, const TypeRegistry* registry,
                               ObjectStoreOptions store_options)
    : chunks_(chunks),
      registry_(registry),
      store_options_(store_options),
      commit_queue_(chunks) {
  store_options_.commit_queue = &commit_queue_;
}

Result<std::shared_ptr<PartitionEngine>> EngineRegistry::Add(
    PartitionId partition) {
  if (!chunks_->PartitionExists(partition)) {
    return NotFoundError("partition " + std::to_string(partition) +
                         " does not exist in the chunk store");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (engines_.count(partition) != 0) {
    return AlreadyExistsError("partition " + std::to_string(partition) +
                              " is already served");
  }
  auto engine = std::make_shared<PartitionEngine>(chunks_, partition,
                                                  registry_, store_options_);
  engines_[partition] = engine;
  return engine;
}

Status EngineRegistry::Remove(PartitionId partition) {
  std::lock_guard<std::mutex> lock(mu_);
  if (engines_.erase(partition) == 0) {
    return NotFoundError("partition " + std::to_string(partition) +
                         " is not served");
  }
  return OkStatus();
}

std::shared_ptr<PartitionEngine> EngineRegistry::Find(
    PartitionId partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(partition);
  return it == engines_.end() ? nullptr : it->second;
}

std::shared_ptr<PartitionEngine> EngineRegistry::Solo() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.size() == 1 ? engines_.begin()->second : nullptr;
}

std::vector<std::shared_ptr<PartitionEngine>> EngineRegistry::Engines() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<PartitionEngine>> out;
  out.reserve(engines_.size());
  for (const auto& [id, engine] : engines_) {
    out.push_back(engine);
  }
  return out;
}

size_t EngineRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.size();
}

}  // namespace tdb::shard
