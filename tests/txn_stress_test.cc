// Multi-threaded transaction stress: concurrent transactions with
// conflicting read/write sets, lock upgrades, and timeout-broken deadlocks,
// asserting serializability (money conservation, no lost updates) with
// group commit both off and on. Carries the tsan label so the thread
// sanitizer build exercises the lock manager, the group-commit queue, and
// the object cache under real contention.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/object/object_store.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"

namespace tdb {
namespace {

class Account final : public Pickled {
 public:
  static constexpr uint32_t kTypeTag = 100;

  Account() = default;
  explicit Account(int64_t balance) : balance(balance) {}

  int64_t balance = 0;

  uint32_t type_tag() const override { return kTypeTag; }
  void PickleFields(PickleWriter& w) const override { w.WriteI64(balance); }
  static Result<ObjectPtr> UnpickleFields(PickleReader& r) {
    auto account = std::make_shared<Account>();
    account->balance = r.ReadI64();
    return ObjectPtr(account);
  }
};

int64_t Balance(const ObjectPtr& object) {
  return dynamic_cast<const Account&>(*object).balance;
}

// Parameterized on group commit so both commit paths face the same
// contention.
class TxnStressTest : public ::testing::TestWithParam<bool> {
 protected:
  TxnStressTest()
      : store_({.segment_size = 16384, .num_segments = 1024}),
        secret_(Bytes(32, 0xA5)) {
    chunk_options_.validation.mode = ValidationMode::kCounter;
    auto cs = ChunkStore::Create(
        &store_, TrustedServices{&secret_, nullptr, &counter_}, chunk_options_);
    EXPECT_TRUE(cs.ok());
    chunks_ = std::move(*cs);
    EXPECT_TRUE(RegisterType<Account>(registry_).ok());
    auto pid = chunks_->AllocatePartition();
    ChunkStore::Batch batch;
    batch.WritePartition(
        *pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)});
    EXPECT_TRUE(chunks_->Commit(std::move(batch)).ok());
    ObjectStoreOptions options;
    options.lock_timeout = std::chrono::milliseconds(50);
    options.group_commit = GetParam();
    objects_ =
        std::make_unique<ObjectStore>(chunks_.get(), *pid, &registry_, options);
  }

  std::vector<ObjectId> SeedAccounts(int n, int64_t balance) {
    auto setup = objects_->Begin();
    std::vector<ObjectId> ids;
    ids.reserve(n);
    for (int i = 0; i < n; ++i) {
      auto id = setup->Insert(std::make_shared<Account>(balance));
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    EXPECT_TRUE(setup->Commit().ok());
    return ids;
  }

  MemUntrustedStore store_;
  MemSecretStore secret_;
  MemMonotonicCounter counter_;
  ChunkStoreOptions chunk_options_;
  TypeRegistry registry_;
  std::unique_ptr<ChunkStore> chunks_;
  std::unique_ptr<ObjectStore> objects_;
};

// Threads transfer money between overlapping pairs of accounts; every
// transaction either commits in full or leaves no trace, so the total is
// conserved no matter how the timeouts interleave.
TEST_P(TxnStressTest, ConcurrentTransfersConserveMoney) {
  constexpr int kAccounts = 8;
  constexpr int kThreads = 8;
  constexpr int kTransfersPerThread = 40;
  constexpr int64_t kSeedBalance = 1000;
  std::vector<ObjectId> ids = SeedAccounts(kAccounts, kSeedBalance);

  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t * 7919 + 1);
      std::uniform_int_distribution<int> pick(0, kAccounts - 1);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        int from = pick(rng);
        int to = pick(rng);
        if (from == to) {
          continue;
        }
        // Deadlocks between opposite-order transfers are broken by lock
        // timeouts; a timed-out transaction aborts and the transfer is
        // simply dropped (retry would also be correct — conservation is
        // what we assert).
        auto txn = objects_->Begin();
        auto src = txn->GetForUpdate(ids[from]);
        if (!src.ok()) {
          txn->Abort();
          continue;
        }
        auto dst = txn->GetForUpdate(ids[to]);
        if (!dst.ok()) {
          txn->Abort();
          continue;
        }
        if (!txn->Put(ids[from],
                      std::make_shared<Account>(Balance(*src) - 1))
                 .ok() ||
            !txn->Put(ids[to], std::make_shared<Account>(Balance(*dst) + 1))
                 .ok()) {
          txn->Abort();
          continue;
        }
        if (txn->Commit().ok()) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GT(committed.load(), 0) << "every single transfer timed out";

  auto check = objects_->Begin();
  int64_t total = 0;
  for (const ObjectId& id : ids) {
    auto account = check->Get(id);
    ASSERT_TRUE(account.ok());
    total += Balance(*account);
  }
  EXPECT_EQ(total, kAccounts * kSeedBalance);
}

// All threads increment the same counter through a shared-then-exclusive
// upgrade (Get, then Put). Two readers both trying to upgrade would
// deadlock; the second upgrade fails at once and its transaction retries,
// so no increment may ever be lost, and the retries must not livelock.
TEST_P(TxnStressTest, UpgradeContentionLosesNoUpdates) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 25;
  std::vector<ObjectId> ids = SeedAccounts(1, 0);
  ObjectId id = ids[0];

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        // Retry until this increment commits.
        while (true) {
          auto txn = objects_->Begin();
          auto current = txn->Get(id);  // shared lock first — forces upgrade
          if (!current.ok()) {
            txn->Abort();
            continue;
          }
          if (!txn->Put(id,
                        std::make_shared<Account>(Balance(*current) + 1))
                   .ok()) {
            txn->Abort();
            continue;
          }
          if (txn->Commit().ok()) {
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  auto check = objects_->Begin();
  auto account = check->Get(id);
  ASSERT_TRUE(account.ok());
  EXPECT_EQ(Balance(*account), kThreads * kIncrementsPerThread);
}

// The lock manager reports its traffic: acquires count both grants and
// waits, the contended/timeout counters only fire under conflict, and the
// wait-time histogram only collects samples from waiters.
TEST_P(TxnStressTest, LockMetricsReportContention) {
  obs::MetricsRegistry::Instance().Reset();
  obs::MetricsRegistry::Instance().Enable();

  std::vector<ObjectId> ids = SeedAccounts(1, 0);
  ObjectId id = ids[0];

  // Uncontended traffic first: acquires move, timeouts don't.
  {
    auto txn = objects_->Begin();
    ASSERT_TRUE(txn->Get(id).ok());
    txn->Abort();
  }
  auto& metrics = obs::MetricsRegistry::Instance();
  EXPECT_GT(metrics.GetCounter("lock.acquires"), 0u);
  EXPECT_EQ(metrics.GetCounter("lock.timeouts"), 0u);

  // A guaranteed conflict: the holder keeps the exclusive lock until the
  // contender has timed out.
  auto holder = objects_->Begin();
  ASSERT_TRUE(holder->GetForUpdate(id).ok());
  auto contender = objects_->Begin();
  EXPECT_EQ(contender->GetForUpdate(id).status().code(), StatusCode::kTimeout);
  holder->Abort();
  contender->Abort();

  EXPECT_GE(metrics.GetCounter("lock.contended"), 1u);
  EXPECT_GE(metrics.GetCounter("lock.timeouts"), 1u);
  bool saw_wait_histogram = false;
  for (const auto& h : metrics.Histograms()) {
    if (h.name == "lock.wait_us") {
      saw_wait_histogram = true;
      EXPECT_GE(h.count, 1u);
      // The contender waited out its full 50ms lock timeout.
      EXPECT_GE(h.max, 1000.0);
    }
  }
  EXPECT_TRUE(saw_wait_histogram);
  obs::MetricsRegistry::Instance().Disable();
}

// Two holders upgrading one object would each wait for the other's shared
// lock. The second upgrade fails at once, and the first is granted as soon
// as the loser aborts, long before the lock timeout.
TEST(LockManagerUpgradeTest, SecondUpgraderFailsAtOnce) {
  LockManager locks(std::chrono::seconds(10));
  const ChunkId id(1, 0, 7);
  ASSERT_TRUE(locks.Acquire(1, id, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, id, LockMode::kShared).ok());

  Status results[3];  // indexed by owner
  auto upgrade = [&](uint64_t owner) {
    results[owner] = locks.Acquire(owner, id, LockMode::kExclusive);
    if (!results[owner].ok()) {
      locks.ReleaseAll(owner);  // the loser aborts
    }
  };
  const auto started = std::chrono::steady_clock::now();
  std::thread first(upgrade, 1);
  std::thread second(upgrade, 2);
  first.join();
  second.join();

  EXPECT_NE(results[1].ok(), results[2].ok()) << "exactly one upgrade wins";
  const Status& lost = results[1].ok() ? results[2] : results[1];
  EXPECT_EQ(lost.code(), StatusCode::kTimeout) << lost.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(5))
      << "the conflict waited for the lock timeout";
}

INSTANTIATE_TEST_SUITE_P(GroupCommit, TxnStressTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace tdb
