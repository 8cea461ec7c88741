// The soak/torture harness (samba's tdbtorture, grown up): YCSB driver
// traffic plus balance-transfer transactions run continuously while a
// maintenance thread overlaps checkpoints, segment cleaning, and chained
// incremental backups (each verified by restoring onto a fresh store), and a
// disruptor thread arms crash-point injection against the live untrusted
// store — then the harness "reboots" (reopen + crash recovery) and asserts
// the conservation invariants:
//
//  * the sum of all account balances never changes (every transfer commits
//    atomically or not at all, across group commit, cleaning, and crashes);
//  * every acknowledged insert stays readable after recovery;
//  * recovery and every read is tamper-free (no kTamperDetected);
//  * every restored backup shows a consistent snapshot (same balance sum).
//
// Runs in two modes: kLocal drives the ObjectStore directly; kWire puts a
// TdbServer/TdbClient pair (loopback transport) in the path so sessions,
// framing, idle timeouts, and group commit are under fire too — in kWire
// mode a crash also takes the server down and recovery restarts it.
//
// Duration is wall-clock bounded; tests default to a couple of seconds and
// honor the TDB_SOAK_SECONDS environment variable for long soaks.

#ifndef SRC_WORKLOAD_TORTURE_H_
#define SRC_WORKLOAD_TORTURE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/backup/backup_store.h"
#include "src/common/crash_point.h"
#include "src/net/loopback.h"
#include "src/server/server.h"
#include "src/store/archival_store.h"
#include "src/store/crash_point_store.h"
#include "src/workload/ycsb.h"

namespace tdb::workload {

enum class TortureMode : uint8_t { kLocal, kWire };

struct TortureOptions {
  TortureMode mode = TortureMode::kLocal;
  std::chrono::milliseconds duration{2000};
  // One disruption cycle: traffic runs, maintenance interleaves, at most one
  // injected crash, then verification.
  std::chrono::milliseconds epoch{500};
  uint64_t seed = 42;

  int driver_threads = 3;
  int transfer_threads = 2;
  uint64_t accounts = 16;
  int64_t seed_balance = 1000;

  uint64_t records = 512;
  uint64_t value_min = 64;
  uint64_t value_max = 512;
  // Kept well below `records` so steady-state reads miss the object cache
  // and exercise the chunk read/validate path while the cleaner runs.
  size_t object_cache_capacity = 128;

  bool crash_injection = true;
  // Verify a restore every Nth backup (restores are expensive).
  int restore_verify_every = 2;

  // Applies TDB_SOAK_SECONDS (if set and parseable) to `duration`.
  void ApplySoakEnv();
};

struct TortureReport {
  uint64_t epochs = 0;
  uint64_t crashes = 0;
  uint64_t recoveries = 0;
  uint64_t checkpoints = 0;
  uint64_t cleans = 0;
  uint64_t backups = 0;
  uint64_t restores_verified = 0;
  uint64_t driver_txns_committed = 0;
  uint64_t driver_txns_aborted = 0;
  uint64_t driver_ops = 0;
  uint64_t transfers_committed = 0;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

class TortureHarness {
 public:
  explicit TortureHarness(TortureOptions options);
  ~TortureHarness();

  // Builds the stack, loads the dataset, and soaks for options.duration.
  // A non-OK status means the harness itself could not run; invariant
  // violations land in the report instead.
  Result<TortureReport> Run();

 private:
  Status BuildStack(bool fresh);
  void TearDownStack();
  Status LoadData();
  // Returns false when recovery failed and left no stack to run on.
  bool RunEpoch(TortureReport& report);
  void MaintenanceLoop(const std::atomic<bool>& stop, TortureReport& report);
  void TransferLoop(int thread_index, const std::atomic<bool>& stop,
                    std::atomic<uint64_t>& committed);
  Status BackupAndMaybeVerify(TortureReport& report, bool force_verify = false);
  void VerifyInvariants(const char* when, TortureReport& report);
  Status RecoverAfterCrash(TortureReport& report);
  void Violation(TortureReport& report, std::string what);

  // One transfer transaction against whatever the mode's access path is.
  Status TransferOnce(YcsbBackend& backend, Rng& rng);

  // Both return nullptr while the stack is down.
  std::unique_ptr<YcsbBackend> NewBackend();
  ObjectStore* verify_store();

  TortureOptions options_;
  Rng rng_;

  // Devices (survive "reboots"):
  MemUntrustedStore base_;
  CrashPointController controller_;
  CrashPointStore crash_store_;
  MemSecretStore secret_;
  MemMonotonicCounter counter_;
  MemArchive archive_;

  // The rebuildable stack:
  TypeRegistry registry_;
  std::unique_ptr<ChunkStore> chunks_;
  std::unique_ptr<ObjectStore> objects_;        // kLocal (and verification)
  std::unique_ptr<net::LoopbackTransport> transport_;  // kWire
  std::unique_ptr<server::TdbServer> server_;          // kWire

  PartitionId partition_ = 0;
  std::vector<uint64_t> account_ids_;  // packed
  int64_t expected_total_ = 0;
  KeyTable table_;
  uint64_t epoch_seed_ = 0;

  // Incremental backup chain state.
  PartitionId base_snapshot_ = 0;
  std::vector<std::string> backup_streams_;
  uint64_t next_backup_id_ = 1;

  std::mutex violations_mu_;
};

}  // namespace tdb::workload

#endif  // SRC_WORKLOAD_TORTURE_H_
