// Tests for the object store: typed pickling, transactions, two-phase
// locking, deadlock breaking via timeouts, no-steal commit buffering,
// caching, and persistence through the chunk store.

#include <gtest/gtest.h>

#include <thread>

#include "src/object/object_store.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"

namespace tdb {
namespace {

// A simple application object: a consumer account with a balance.
class Account final : public Pickled {
 public:
  static constexpr uint32_t kTypeTag = 100;

  Account() = default;
  Account(std::string owner, int64_t balance)
      : owner(std::move(owner)), balance(balance) {}

  std::string owner;
  int64_t balance = 0;

  uint32_t type_tag() const override { return kTypeTag; }
  void PickleFields(PickleWriter& w) const override {
    w.WriteString(owner);
    w.WriteI64(balance);
  }
  static Result<ObjectPtr> UnpickleFields(PickleReader& r) {
    auto account = std::make_shared<Account>();
    account->owner = r.ReadString();
    account->balance = r.ReadI64();
    return ObjectPtr(account);
  }
};

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest()
      : store_({.segment_size = 8192, .num_segments = 256}),
        secret_(Bytes(32, 0xA5)) {
    options_.validation.mode = ValidationMode::kCounter;
    auto cs = ChunkStore::Create(
        &store_, TrustedServices{&secret_, nullptr, &counter_}, options_);
    EXPECT_TRUE(cs.ok());
    chunks_ = std::move(*cs);
    EXPECT_TRUE(RegisterType<Account>(registry_).ok());
    auto pid = chunks_->AllocatePartition();
    ChunkStore::Batch batch;
    batch.WritePartition(
        *pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)});
    EXPECT_TRUE(chunks_->Commit(std::move(batch)).ok());
    partition_ = *pid;
    objects_ = std::make_unique<ObjectStore>(chunks_.get(), partition_,
                                             &registry_, object_options_);
  }

  MemUntrustedStore store_;
  MemSecretStore secret_;
  MemMonotonicCounter counter_;
  ChunkStoreOptions options_;
  ObjectStoreOptions object_options_{.lock_timeout =
                                         std::chrono::milliseconds(100)};
  TypeRegistry registry_;
  std::unique_ptr<ChunkStore> chunks_;
  PartitionId partition_ = 0;
  std::unique_ptr<ObjectStore> objects_;
};

const Account& AsAccount(const ObjectPtr& object) {
  return dynamic_cast<const Account&>(*object);
}

TEST_F(ObjectStoreTest, InsertGetRoundTrip) {
  auto txn = objects_->Begin();
  auto id = txn->Insert(std::make_shared<Account>("alice", 100));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(txn->Commit().ok());

  auto txn2 = objects_->Begin();
  auto account = txn2->Get(*id);
  ASSERT_TRUE(account.ok());
  EXPECT_EQ(AsAccount(*account).owner, "alice");
  EXPECT_EQ(AsAccount(*account).balance, 100);
}

TEST_F(ObjectStoreTest, UncommittedWritesInvisibleToOthers) {
  ObjectId id;
  {
    auto txn = objects_->Begin();
    id = *txn->Insert(std::make_shared<Account>("bob", 10));
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto writer = objects_->Begin();
  ASSERT_TRUE(writer->Put(id, std::make_shared<Account>("bob", 999)).ok());
  // The writer sees its own buffered value.
  EXPECT_EQ(AsAccount(*writer->Get(id)).balance, 999);
  writer->Abort();
  // After abort, the old value is intact.
  auto reader = objects_->Begin();
  EXPECT_EQ(AsAccount(*reader->Get(id)).balance, 10);
}

TEST_F(ObjectStoreTest, MultiObjectCommitIsAtomic) {
  auto txn = objects_->Begin();
  auto a = txn->Insert(std::make_shared<Account>("a", 1));
  auto b = txn->Insert(std::make_shared<Account>("b", 2));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(txn->Commit().ok());

  // Transfer between the two in one transaction.
  auto transfer = objects_->Begin();
  auto from = transfer->GetForUpdate(*a);
  auto to = transfer->GetForUpdate(*b);
  ASSERT_TRUE(from.ok() && to.ok());
  ASSERT_TRUE(
      transfer
          ->Put(*a, std::make_shared<Account>("a", AsAccount(*from).balance - 1))
          .ok());
  ASSERT_TRUE(
      transfer
          ->Put(*b, std::make_shared<Account>("b", AsAccount(*to).balance + 1))
          .ok());
  ASSERT_TRUE(transfer->Commit().ok());

  auto check = objects_->Begin();
  EXPECT_EQ(AsAccount(*check->Get(*a)).balance, 0);
  EXPECT_EQ(AsAccount(*check->Get(*b)).balance, 3);
}

TEST_F(ObjectStoreTest, DeleteRemovesObject) {
  auto txn = objects_->Begin();
  ObjectId id = *txn->Insert(std::make_shared<Account>("gone", 0));
  ASSERT_TRUE(txn->Commit().ok());
  auto txn2 = objects_->Begin();
  ASSERT_TRUE(txn2->Delete(id).ok());
  ASSERT_TRUE(txn2->Commit().ok());
  auto txn3 = objects_->Begin();
  EXPECT_EQ(txn3->Get(id).status().code(), StatusCode::kNotFound);
}

TEST_F(ObjectStoreTest, InsertThenDeleteInSameTransactionIsNoop) {
  auto txn = objects_->Begin();
  ObjectId id = *txn->Insert(std::make_shared<Account>("fleeting", 0));
  ASSERT_TRUE(txn->Delete(id).ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto txn2 = objects_->Begin();
  EXPECT_EQ(txn2->Get(id).status().code(), StatusCode::kNotFound);
}

TEST_F(ObjectStoreTest, ConflictingWritersTimeOut) {
  auto setup = objects_->Begin();
  ObjectId id = *setup->Insert(std::make_shared<Account>("contested", 0));
  ASSERT_TRUE(setup->Commit().ok());

  auto t1 = objects_->Begin();
  ASSERT_TRUE(t1->GetForUpdate(id).ok());
  auto t2 = objects_->Begin();
  // t2 cannot acquire the exclusive lock while t1 holds it.
  EXPECT_EQ(t2->GetForUpdate(id).status().code(), StatusCode::kTimeout);
  t1->Abort();
  // After t1 releases, t2 can proceed.
  EXPECT_TRUE(t2->GetForUpdate(id).ok());
}

TEST_F(ObjectStoreTest, SharedReadersDoNotBlockEachOther) {
  auto setup = objects_->Begin();
  ObjectId id = *setup->Insert(std::make_shared<Account>("shared", 5));
  ASSERT_TRUE(setup->Commit().ok());
  auto t1 = objects_->Begin();
  auto t2 = objects_->Begin();
  EXPECT_TRUE(t1->Get(id).ok());
  EXPECT_TRUE(t2->Get(id).ok());
}

TEST_F(ObjectStoreTest, DeadlockBrokenByTimeout) {
  auto setup = objects_->Begin();
  ObjectId a = *setup->Insert(std::make_shared<Account>("a", 0));
  ObjectId b = *setup->Insert(std::make_shared<Account>("b", 0));
  ASSERT_TRUE(setup->Commit().ok());

  auto t1 = objects_->Begin();
  auto t2 = objects_->Begin();
  ASSERT_TRUE(t1->GetForUpdate(a).ok());
  ASSERT_TRUE(t2->GetForUpdate(b).ok());

  // t1 wants b while t2 wants a: a deadlock; both waits time out rather
  // than hanging forever.
  Status s1, s2;
  std::thread th1([&] { s1 = t1->GetForUpdate(b).status(); });
  std::thread th2([&] { s2 = t2->GetForUpdate(a).status(); });
  th1.join();
  th2.join();
  EXPECT_TRUE(s1.code() == StatusCode::kTimeout ||
              s2.code() == StatusCode::kTimeout);
}

TEST_F(ObjectStoreTest, SurvivesRestart) {
  ObjectId id;
  {
    auto txn = objects_->Begin();
    id = *txn->Insert(std::make_shared<Account>("durable", 77));
    ASSERT_TRUE(txn->Commit().ok());
  }
  objects_.reset();
  chunks_.reset();
  auto reopened = ChunkStore::Open(
      &store_, TrustedServices{&secret_, nullptr, &counter_}, options_);
  ASSERT_TRUE(reopened.ok());
  ObjectStore objects2(reopened->get(), partition_, &registry_);
  auto txn = objects2.Begin();
  auto account = txn->Get(id);
  ASSERT_TRUE(account.ok());
  EXPECT_EQ(AsAccount(*account).owner, "durable");
  EXPECT_EQ(AsAccount(*account).balance, 77);
}

// write_commits() (the partition's data version, and the server's
// shard.partition.<id>.commits gauge) counts only the transactions that
// committed a write.
TEST_F(ObjectStoreTest, WriteCommitsCountOnlyTransactionsThatWrote) {
  const uint64_t before = objects_->write_commits();
  auto txn = objects_->Begin();
  ObjectId id = *txn->Insert(std::make_shared<Account>("x", 1));
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(objects_->write_commits(), before + 1);

  auto reader = objects_->Begin();
  ASSERT_TRUE(reader->Get(id).ok());
  ASSERT_TRUE(reader->Commit().ok());
  auto snapshot = objects_->BeginReadOnly();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE((*snapshot)->Get(id).ok());
  ASSERT_TRUE((*snapshot)->Commit().ok());
  auto aborted = objects_->Begin();
  ASSERT_TRUE(aborted->Put(id, std::make_shared<Account>("x", 3)).ok());
  aborted->Abort();
  auto undone = objects_->Begin();
  ObjectId discarded = *undone->Insert(std::make_shared<Account>("y", 1));
  ASSERT_TRUE(undone->Delete(discarded).ok());
  ASSERT_TRUE(undone->Commit().ok());  // nothing left to write
  EXPECT_EQ(objects_->write_commits(), before + 1);

  auto writer = objects_->Begin();
  ASSERT_TRUE(writer->Get(id).ok());
  ASSERT_TRUE(writer->Put(id, std::make_shared<Account>("x", 2)).ok());
  ASSERT_TRUE(writer->Commit().ok());
  EXPECT_EQ(objects_->write_commits(), before + 2);
}

TEST_F(ObjectStoreTest, FinishedTransactionRejectsFurtherOps) {
  auto txn = objects_->Begin();
  ObjectId id = *txn->Insert(std::make_shared<Account>("x", 1));
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(txn->Get(id).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(txn->Commit().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ObjectStoreTest, CacheServesRepeatedReads) {
  auto txn = objects_->Begin();
  ObjectId id = *txn->Insert(std::make_shared<Account>("cached", 3));
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GE(objects_->cache_size(), 1u);
  auto txn2 = objects_->Begin();
  ObjectPtr first = *txn2->Get(id);
  ObjectPtr second = *txn2->Get(id);
  // Identical pointers: the cache serves the same validated object.
  EXPECT_EQ(first.get(), second.get());
}

}  // namespace
}  // namespace tdb
