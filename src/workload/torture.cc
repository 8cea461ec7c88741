#include "src/workload/torture.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "src/backup/backup_store.h"
#include "src/server/blob.h"

namespace tdb::workload {

namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

CryptoParams TorturePartitionParams() {
  return CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 0x7E)};
}

// Account balances travel as 8-byte little-endian int64 blobs.
std::string EncodeBalance(int64_t balance) {
  std::string out(8, '\0');
  uint64_t u = static_cast<uint64_t>(balance);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((u >> (i * 8)) & 0xFF);
  }
  return out;
}

Result<int64_t> DecodeBalance(const std::string& value) {
  if (value.size() != 8) {
    return CorruptionError("account blob is not an 8-byte balance");
  }
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u |= static_cast<uint64_t>(static_cast<uint8_t>(value[i])) << (i * 8);
  }
  return static_cast<int64_t>(u);
}

// RestoreStream validates an incremental chain within one call, so a chain
// archived as separate streams is restored by concatenating the streams
// (full first, then each incremental in creation order) into one source.
class ChainSource final : public ArchivalSource {
 public:
  explicit ChainSource(std::vector<std::unique_ptr<ArchivalSource>> parts)
      : parts_(std::move(parts)) {}

  Result<Bytes> Read(size_t n) override {
    if (n == 0) {
      // A zero-byte read returns nothing on any stream; it must not be
      // mistaken for end-of-part (frames with empty payloads are real).
      return Bytes{};
    }
    while (index_ < parts_.size()) {
      TDB_ASSIGN_OR_RETURN(Bytes out, parts_[index_]->Read(n));
      if (!out.empty()) {
        return out;
      }
      ++index_;
    }
    return Bytes{};
  }

 private:
  std::vector<std::unique_ptr<ArchivalSource>> parts_;
  size_t index_ = 0;
};

// The traffic mix the driver runs during torture: read-heavy with enough
// updates, inserts, scans, and RMWs to keep every code path under fire.
WorkloadSpec TortureSpec(const TortureOptions& options) {
  WorkloadSpec spec;
  spec.name = "torture";
  spec.read = 0.50;
  spec.update = 0.25;
  spec.insert = 0.05;
  spec.scan = 0.15;
  spec.rmw = 0.05;
  spec.dist = KeyDistributionKind::kZipfian;
  spec.record_count = options.records;
  spec.value_min = options.value_min;
  spec.value_max = options.value_max;
  spec.max_scan_len = 8;
  return spec;
}

}  // namespace

void TortureOptions::ApplySoakEnv() {
  const char* env = std::getenv("TDB_SOAK_SECONDS");
  if (env == nullptr || *env == '\0') {
    return;
  }
  char* end = nullptr;
  long seconds = std::strtol(env, &end, 10);
  if (end == env || seconds <= 0) {
    return;
  }
  duration = std::chrono::milliseconds(seconds * 1000);
}

std::string TortureReport::Summary() const {
  std::ostringstream out;
  out << "epochs=" << epochs << " crashes=" << crashes
      << " recoveries=" << recoveries << " checkpoints=" << checkpoints
      << " cleans=" << cleans << " backups=" << backups
      << " restores_verified=" << restores_verified
      << " driver_txns=" << driver_txns_committed << "/+"
      << driver_txns_aborted << " aborted, driver_ops=" << driver_ops
      << " transfers=" << transfers_committed
      << " violations=" << violations.size();
  for (const std::string& v : violations) {
    out << "\n  VIOLATION: " << v;
  }
  return out.str();
}

TortureHarness::TortureHarness(TortureOptions options)
    : options_(options),
      rng_(options.seed),
      crash_store_(&base_, &controller_),
      secret_(Bytes(32, 0xC4)) {}

TortureHarness::~TortureHarness() { TearDownStack(); }

Status TortureHarness::BuildStack(bool fresh) {
  ChunkStoreOptions chunk_options;
  chunk_options.validation.mode = ValidationMode::kCounter;

  TrustedServices trusted{&secret_, nullptr, &counter_};
  if (fresh) {
    TDB_ASSIGN_OR_RETURN(chunks_, ChunkStore::Create(&crash_store_, trusted,
                                                     chunk_options));
    TDB_ASSIGN_OR_RETURN(partition_, chunks_->AllocatePartition());
    ChunkStore::Batch batch;
    batch.WritePartition(partition_, TorturePartitionParams());
    TDB_RETURN_IF_ERROR(chunks_->Commit(std::move(batch)));
    TDB_RETURN_IF_ERROR(RegisterType<server::BlobValue>(registry_));
  } else {
    TDB_ASSIGN_OR_RETURN(chunks_, ChunkStore::Open(&crash_store_, trusted,
                                                   chunk_options));
    if (!chunks_->PartitionExists(partition_)) {
      return CorruptionError("served partition vanished across recovery");
    }
  }

  if (options_.mode == TortureMode::kLocal) {
    ObjectStoreOptions object_options;
    object_options.lock_timeout = std::chrono::milliseconds(100);
    object_options.cache_capacity = options_.object_cache_capacity;
    object_options.group_commit = true;
    objects_ = std::make_unique<ObjectStore>(chunks_.get(), partition_,
                                             &registry_, object_options);
  } else {
    transport_ = std::make_unique<net::LoopbackTransport>();
    server::TdbServerOptions server_options;
    server_options.lock_timeout = std::chrono::milliseconds(100);
    server_options.cache_capacity = options_.object_cache_capacity;
    server_options.group_commit = true;
    server_ = std::make_unique<server::TdbServer>(chunks_.get(), partition_,
                                                  &registry_, server_options);
    TDB_RETURN_IF_ERROR(server_->Start(transport_.get(), "torture"));
  }
  return OkStatus();
}

void TortureHarness::TearDownStack() {
  if (server_ != nullptr) {
    server_->Stop();
  }
  server_.reset();
  transport_.reset();
  objects_.reset();
  chunks_.reset();
}

// The quiesced-verification access path: the local store, or the store the
// server shares with in-process callers.
ObjectStore* TortureHarness::verify_store() {
  if (options_.mode == TortureMode::kLocal) {
    return objects_.get();
  }
  return server_ != nullptr ? server_->object_store() : nullptr;
}

std::unique_ptr<YcsbBackend> TortureHarness::NewBackend() {
  if (options_.mode == TortureMode::kLocal) {
    if (objects_ == nullptr) {
      return nullptr;
    }
    return std::make_unique<InProcessBackend>(objects_.get());
  }
  if (server_ == nullptr) {
    return nullptr;
  }
  auto backend = std::make_unique<WireBackend>(&registry_);
  if (!backend->Connect(transport_.get(), server_->address()).ok()) {
    return nullptr;
  }
  return backend;
}

Status TortureHarness::LoadData() {
  std::unique_ptr<YcsbBackend> backend = NewBackend();
  if (backend == nullptr) {
    return IoError("could not connect the loading backend");
  }

  // The accounts whose balance sum is conserved for the rest of the run.
  TDB_RETURN_IF_ERROR(backend->Begin());
  account_ids_.clear();
  for (uint64_t i = 0; i < options_.accounts; ++i) {
    TDB_ASSIGN_OR_RETURN(uint64_t id,
                         backend->Insert(EncodeBalance(options_.seed_balance)));
    account_ids_.push_back(id);
  }
  TDB_RETURN_IF_ERROR(backend->Commit());
  expected_total_ =
      static_cast<int64_t>(options_.accounts) * options_.seed_balance;

  DriverOptions load_options;
  load_options.seed = options_.seed;
  YcsbDriver loader(TortureSpec(options_), load_options);
  return loader.Load(*backend, table_);
}

Status TortureHarness::TransferOnce(YcsbBackend& backend, Rng& rng) {
  uint64_t a = rng.NextBelow(options_.accounts);
  uint64_t b = rng.NextBelow(options_.accounts);
  if (a == b) {
    b = (b + 1) % options_.accounts;
  }
  // Lock in index order to keep deadlocks (and timeout aborts) rare.
  uint64_t first = std::min(a, b);
  uint64_t second = std::max(a, b);
  int64_t amount = static_cast<int64_t>(1 + rng.NextBelow(20));

  TDB_RETURN_IF_ERROR(backend.Begin());
  auto fail = [&](const Status& status) {
    backend.Abort();
    return status;
  };
  auto value_first = backend.ReadValueForUpdate(account_ids_[first]);
  if (!value_first.ok()) return fail(value_first.status());
  auto value_second = backend.ReadValueForUpdate(account_ids_[second]);
  if (!value_second.ok()) return fail(value_second.status());
  auto balance_first = DecodeBalance(*value_first);
  if (!balance_first.ok()) return fail(balance_first.status());
  auto balance_second = DecodeBalance(*value_second);
  if (!balance_second.ok()) return fail(balance_second.status());

  // Move `amount` from a to b (signs depend on which index sorted first).
  int64_t delta_first = (first == a) ? -amount : amount;
  Status status = backend.Update(account_ids_[first],
                                 EncodeBalance(*balance_first + delta_first));
  if (!status.ok()) return fail(status);
  status = backend.Update(account_ids_[second],
                          EncodeBalance(*balance_second - delta_first));
  if (!status.ok()) return fail(status);
  return backend.Commit();
}

void TortureHarness::TransferLoop(int thread_index,
                                  const std::atomic<bool>& stop,
                                  std::atomic<uint64_t>& committed) {
  std::unique_ptr<YcsbBackend> backend = NewBackend();
  if (backend == nullptr) {
    return;  // connect raced a crash; the epoch runs without this thread
  }
  Rng rng(epoch_seed_ + kGolden * static_cast<uint64_t>(thread_index + 101));
  while (!stop.load(std::memory_order_relaxed)) {
    Status status = TransferOnce(*backend, rng);
    if (status.ok()) {
      committed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (status.code() == StatusCode::kTimeout) {
      continue;  // deadlock broken; conservation holds either way
    }
    // Any other failure means the system went down under us (the crash flag
    // is set before the error propagates). A failure while healthy is the
    // maintenance/verify threads' job to flag; this thread just stops.
    break;
  }
}

Status TortureHarness::BackupAndMaybeVerify(TortureReport& report,
                                            bool force_verify) {
  // Bound restore cost (and snapshot pinning): start a fresh full-backup
  // chain every few incrementals.
  constexpr size_t kMaxChain = 4;
  PartitionId base = backup_streams_.size() >= kMaxChain ? 0 : base_snapshot_;

  uint64_t id = next_backup_id_++;
  std::string stream = "backup-" + std::to_string(id);
  std::unique_ptr<ArchivalSink> raw_sink = archive_.OpenSink(stream);
  CrashPointSink sink(raw_sink.get(), &controller_);

  BackupStore backup(chunks_.get());
  auto created = backup.CreateBackupSet({{partition_, base}}, /*set_id=*/id,
                                        /*created_unix=*/1700000000 + id,
                                        &sink);
  TDB_RETURN_IF_ERROR(created.status());
  TDB_RETURN_IF_ERROR(sink.Close());

  // The chain only advances once the stream is fully archived; a failure
  // above leaves the previous chain state (and a dangling partial stream
  // the restore path never sees). A new full backup starts a new chain only
  // now, so a failed one cannot leave the next incremental without its base.
  PartitionId old_snapshot = base_snapshot_;
  base_snapshot_ = created->snapshots[0];
  if (base == 0) {
    backup_streams_.clear();
  }
  backup_streams_.push_back(stream);
  ++report.backups;
  if (old_snapshot != 0) {
    ChunkStore::Batch drop;
    drop.DeallocatePartition(old_snapshot);
    TDB_RETURN_IF_ERROR(chunks_->Commit(std::move(drop)));
  }

  bool verify_now =
      options_.restore_verify_every > 0 &&
      (report.backups % static_cast<uint64_t>(options_.restore_verify_every)) ==
          0;
  if (!force_verify && !verify_now) {
    return OkStatus();
  }

  // Restore the whole chain onto a fresh store (same secret, fresh counter)
  // and check the snapshot is consistent: the balance sum is conserved at
  // every committed state, so any honest snapshot shows the seed total.
  std::vector<std::unique_ptr<ArchivalSource>> parts;
  for (const std::string& name : backup_streams_) {
    TDB_ASSIGN_OR_RETURN(auto part, archive_.OpenSource(name));
    parts.push_back(std::move(part));
  }
  ChainSource chain(std::move(parts));

  MemUntrustedStore scratch_store;
  MemMonotonicCounter scratch_counter;
  ChunkStoreOptions chunk_options;
  chunk_options.validation.mode = ValidationMode::kCounter;
  TDB_ASSIGN_OR_RETURN(
      auto scratch_chunks,
      ChunkStore::Create(&scratch_store,
                         TrustedServices{&secret_, nullptr, &scratch_counter},
                         chunk_options));
  BackupStore restorer(scratch_chunks.get());
  TDB_ASSIGN_OR_RETURN(auto restored, restorer.RestoreStream(&chain));
  if (restored.restored.size() != 1 || restored.restored[0] != partition_) {
    return CorruptionError("restore did not yield the served partition");
  }

  ObjectStore restored_objects(scratch_chunks.get(), partition_, &registry_);
  std::unique_ptr<Transaction> txn = restored_objects.Begin();
  int64_t total = 0;
  for (uint64_t packed : account_ids_) {
    TDB_ASSIGN_OR_RETURN(ObjectPtr object, txn->Get(ObjectId::Unpack(packed)));
    const auto* blob = dynamic_cast<const server::BlobValue*>(object.get());
    if (blob == nullptr) {
      return CorruptionError("restored account is not a blob");
    }
    TDB_ASSIGN_OR_RETURN(int64_t balance, DecodeBalance(blob->value));
    total += balance;
  }
  txn->Abort();
  if (total != expected_total_) {
    return CorruptionError("restored snapshot broke conservation: " +
                         std::to_string(total) + " != " +
                         std::to_string(expected_total_));
  }
  ++report.restores_verified;
  return OkStatus();
}

void TortureHarness::MaintenanceLoop(const std::atomic<bool>& stop,
                                     TortureReport& report) {
  uint64_t step = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (stop.load(std::memory_order_relaxed)) {
      return;
    }
    Status status = OkStatus();
    switch (step++ % 3) {
      case 0:
        status = chunks_->Checkpoint();
        if (status.ok()) ++report.checkpoints;
        break;
      case 1: {
        auto cleaned = chunks_->Clean(2);
        status = cleaned.status();
        if (status.ok()) report.cleans += *cleaned;
        break;
      }
      default:
        status = BackupAndMaybeVerify(report);
        break;
    }
    if (!status.ok()) {
      if (controller_.crashed()) {
        return;  // injected crash took the device down mid-operation
      }
      Violation(report, std::string("maintenance failed while healthy: ") +
                            status.ToString());
      return;
    }
  }
}

void TortureHarness::Violation(TortureReport& report, std::string what) {
  std::lock_guard<std::mutex> lock(violations_mu_);
  report.violations.push_back(std::move(what));
}

void TortureHarness::VerifyInvariants(const char* when,
                                      TortureReport& report) {
  ObjectStore* store = verify_store();
  if (store == nullptr) {
    Violation(report, std::string(when) + ": no store to verify");
    return;
  }
  std::unique_ptr<Transaction> txn = store->Begin();

  int64_t total = 0;
  for (uint64_t packed : account_ids_) {
    auto object = txn->Get(ObjectId::Unpack(packed));
    if (!object.ok()) {
      Violation(report, std::string(when) + ": account read failed: " +
                            object.status().ToString());
      txn->Abort();
      return;
    }
    const auto* blob = dynamic_cast<const server::BlobValue*>(object->get());
    auto balance =
        blob != nullptr ? DecodeBalance(blob->value)
                        : Result<int64_t>(CorruptionError("non-blob account"));
    if (!balance.ok()) {
      Violation(report, std::string(when) + ": account decode failed: " +
                            balance.status().ToString());
      txn->Abort();
      return;
    }
    total += *balance;
  }
  if (total != expected_total_) {
    Violation(report, std::string(when) +
                          ": conservation broken: " + std::to_string(total) +
                          " != " + std::to_string(expected_total_));
  }

  // Every acknowledged insert must still be readable, tamper-free. This
  // sweeps far past the object cache, so it exercises chunk read+validate.
  std::vector<uint64_t> keys = table_.Snapshot();
  for (uint64_t packed : keys) {
    auto object = txn->Get(ObjectId::Unpack(packed));
    if (!object.ok()) {
      Violation(report, std::string(when) + ": acknowledged key " +
                            std::to_string(packed) +
                            " unreadable: " + object.status().ToString());
      txn->Abort();
      return;
    }
  }
  txn->Abort();
}

Status TortureHarness::RecoverAfterCrash(TortureReport& report) {
  TearDownStack();
  // Half the recoveries model full power loss (the device's volatile write
  // cache is gone); the other half a process crash with the device intact.
  if (rng_.NextBool()) {
    base_.Crash();
  }
  controller_.Disarm();
  if (Status built = BuildStack(/*fresh=*/false); !built.ok()) {
    TearDownStack();  // leave no half-built stack behind
    return built;
  }
  ++report.recoveries;
  VerifyInvariants("after recovery", report);
  return OkStatus();
}

bool TortureHarness::RunEpoch(TortureReport& report) {
  ++report.epochs;
  epoch_seed_ = rng_.NextU64();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> transfers{0};

  // Driver backends: one per thread.
  std::vector<std::unique_ptr<YcsbBackend>> backends;
  std::vector<YcsbBackend*> backend_ptrs;
  for (int t = 0; t < options_.driver_threads; ++t) {
    std::unique_ptr<YcsbBackend> backend = NewBackend();
    if (backend != nullptr) {
      backend_ptrs.push_back(backend.get());
      backends.push_back(std::move(backend));
    }
  }
  if (backend_ptrs.empty()) {
    Violation(report, "epoch could not connect any driver backend");
    return true;
  }

  DriverOptions driver_options;
  driver_options.operations = 1ULL << 40;  // bounded by `stop`, not count
  driver_options.seed = epoch_seed_;
  driver_options.stop = &stop;
  driver_options.tolerate_failures = true;
  YcsbDriver driver(TortureSpec(options_), driver_options);

  DriverResult driver_result;
  std::thread driver_thread([&] {
    driver_result = driver.Run(backend_ptrs, table_);
  });
  std::vector<std::thread> transfer_threads;
  for (int t = 0; t < options_.transfer_threads; ++t) {
    transfer_threads.emplace_back(
        [this, t, &stop, &transfers] { TransferLoop(t, stop, transfers); });
  }
  std::thread maintenance(
      [this, &stop, &report] { MaintenanceLoop(stop, report); });

  // The disruptor: most epochs arm a crash at a random upcoming durability
  // point with a random tear; the rest soak crash-free.
  if (options_.crash_injection && rng_.NextDouble() < 0.7) {
    const double tears[] = {0.0, 0.5, 1.0};
    controller_.Arm(rng_.NextBelow(1500), tears[rng_.NextBelow(3)]);
  }

  auto deadline = std::chrono::steady_clock::now() + options_.epoch;
  while (std::chrono::steady_clock::now() < deadline &&
         !controller_.crashed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  driver_thread.join();
  for (std::thread& t : transfer_threads) {
    t.join();
  }
  maintenance.join();

  report.driver_txns_committed += driver_result.txns_committed;
  report.driver_txns_aborted += driver_result.txns_aborted;
  report.driver_ops += driver_result.ops();
  report.transfers_committed += transfers.load(std::memory_order_relaxed);

  // Close client connections before tearing the server down.
  backends.clear();

  if (controller_.crashed()) {
    ++report.crashes;
    Status status = RecoverAfterCrash(report);
    if (!status.ok()) {
      Violation(report,
                std::string("recovery failed: ") + status.ToString());
      return false;
    }
    return true;
  }
  // No crash this epoch: disarm so verification reads cannot trip a stale
  // crash point, then verify in place.
  controller_.Disarm();
  VerifyInvariants("after epoch", report);
  return true;
}

Result<TortureReport> TortureHarness::Run() {
  TDB_RETURN_IF_ERROR(BuildStack(/*fresh=*/true));
  TDB_RETURN_IF_ERROR(LoadData());

  TortureReport report;
  VerifyInvariants("after load", report);

  auto deadline = std::chrono::steady_clock::now() + options_.duration;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!RunEpoch(report)) {
      // Recovery failed, so there is no stack left to soak or verify; its
      // violation is the report.
      return report;
    }
    if (report.violations.size() >= 8) {
      break;  // a cascade; the first few violations tell the story
    }
  }
  VerifyInvariants("at end", report);

  // Always end with a restore-verified backup of the final state. The cadence
  // above is wall-clock driven, so a short soak on a slow (sanitized) build
  // may not reach a verification step on its own; the final state must
  // survive the full backup/restore round trip regardless.
  Status final_backup = BackupAndMaybeVerify(report, /*force_verify=*/true);
  if (!final_backup.ok()) {
    Violation(report, std::string("final verified backup failed: ") +
                          final_backup.ToString());
  }
  return report;
}

}  // namespace tdb::workload
