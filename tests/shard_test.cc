// Tests for the sharded service: per-partition engines over one chunk
// store, the durable partition directory, cross-partition isolation at the
// wire boundary, concurrent multi-partition traffic through the server's
// one group-commit queue, the per-partition gauges, and live partition
// hand-off — including crash injection at every hand-off stage (source
// crash before cut-over, torn and tampered streams, crash mid-cut-over,
// crash after the move persisted) with both sides recoverable and no false
// tamper alarms.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/loopback.h"
#include "src/platform/trusted_store.h"
#include "src/server/blob.h"
#include "src/server/client.h"
#include "src/server/handoff.h"
#include "src/server/server.h"
#include "src/shard/directory.h"
#include "src/shard/partition_engine.h"
#include "src/store/untrusted_store.h"
#include "tests/metrics_test_util.h"

namespace tdb::server {
namespace {

const BlobValue& AsBlob(const ObjectPtr& object) {
  return dynamic_cast<const BlobValue&>(*object);
}

CryptoParams TenantParams() {
  return CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)};
}

// One server machine: its own untrusted segments, trusted counter, chunk
// store, directory and server — crashable and reopenable. Every node uses
// the same secret bytes, the hand-off prerequisite (backup streams are
// encrypted with the system suite both sides must share).
class Node {
 public:
  Node()
      : store_({.segment_size = 8192,
                .num_segments = 512,
                .flush_latency = std::chrono::microseconds(100)}),
        secret_(Bytes(32, 0xA5)) {
    chunk_options_.validation.mode = ValidationMode::kCounter;
    EXPECT_TRUE(RegisterType<BlobValue>(registry_).ok());
  }

  void Open() {
    auto cs = ChunkStore::Create(
        &store_, TrustedServices{&secret_, nullptr, &counter_},
        chunk_options_);
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    chunks_ = std::move(*cs);
    OpenDirectory();
  }

  // Models a crash: every in-memory structure (server sessions, engine
  // states, staged hand-off streams, snapshot chains) is lost; the
  // untrusted segments and the trusted counter survive, as on a real
  // machine.
  void Crash() {
    server_.reset();
    directory_.reset();
    chunks_.reset();
  }

  void Reopen() {
    auto cs = ChunkStore::Open(
        &store_, TrustedServices{&secret_, nullptr, &counter_},
        chunk_options_);
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    chunks_ = std::move(*cs);
    OpenDirectory();
  }

  void Start(net::Transport* transport, const std::string& address,
             TdbServerOptions options = {}) {
    options.new_partition_params = TenantParams();
    server_ = std::make_unique<TdbServer>(chunks_.get(), directory_.get(),
                                          &registry_, options);
    ASSERT_TRUE(server_->Start(transport, address).ok());
  }

  std::unique_ptr<TdbClient> NewClient(net::Transport* transport) {
    auto client = std::make_unique<TdbClient>(&registry_);
    EXPECT_TRUE(client->Connect(transport, server_->address()).ok());
    return client;
  }

  ChunkStore* chunks() { return chunks_.get(); }
  shard::PartitionDirectory* directory() { return directory_.get(); }
  TdbServer* server() { return server_.get(); }
  const TypeRegistry* registry() const { return &registry_; }

 private:
  void OpenDirectory() {
    auto dir = shard::PartitionDirectory::Open(chunks_.get(), TenantParams());
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    directory_ = std::move(*dir);
  }

  MemUntrustedStore store_;
  MemSecretStore secret_;
  MemMonotonicCounter counter_;
  ChunkStoreOptions chunk_options_;
  TypeRegistry registry_;
  std::unique_ptr<ChunkStore> chunks_;
  std::unique_ptr<shard::PartitionDirectory> directory_;
  std::unique_ptr<TdbServer> server_;
};

// Concurrent multi-partition traffic on node a: two sessions per partition,
// each inserting one row per transaction.
constexpr int kPartitions = 4;
constexpr int kClientsPerPartition = 2;
constexpr int kTxnsPerClient = 12;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_.Open();
    b_.Open();
  }

  void StartBoth(TdbServerOptions options = {}) {
    a_.Start(&transport_, "node-a", options);
    b_.Start(&transport_, "node-b", options);
  }

  // Creates kPartitions tenant partitions on node a.
  std::vector<PartitionId> CreatePartitions() {
    auto admin = a_.NewClient(&transport_);
    std::vector<PartitionId> pids;
    for (int p = 0; p < kPartitions; ++p) {
      auto pid = admin->PartitionCreate("tenant-" + std::to_string(p));
      EXPECT_TRUE(pid.ok());
      pids.push_back(pid.ok() ? *pid : 0);
    }
    return pids;
  }

  // Runs kClientsPerPartition sessions on each of `pids` at once, each
  // committing kTxnsPerClient single-insert transactions. Returns the acked
  // row ids of each partition.
  std::vector<std::vector<ObjectId>> RunPartitionedInserts(
      const std::vector<PartitionId>& pids) {
    std::vector<std::vector<ObjectId>> acked(pids.size() *
                                             kClientsPerPartition);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (size_t p = 0; p < pids.size(); ++p) {
      for (int c = 0; c < kClientsPerPartition; ++c) {
        const size_t slot = p * kClientsPerPartition + c;
        threads.emplace_back([&, p, slot] {
          auto client = a_.NewClient(&transport_);
          for (int t = 0; t < kTxnsPerClient; ++t) {
            if (!client->Begin(pids[p]).ok()) {
              failures.fetch_add(1);
              continue;
            }
            auto id = client->Insert(BlobValue("p" + std::to_string(p) +
                                               " t" + std::to_string(t)));
            if (!id.ok() || !client->Commit().ok()) {
              failures.fetch_add(1);
              continue;
            }
            acked[slot].push_back(*id);
          }
        });
      }
    }
    for (std::thread& t : threads) {
      t.join();
    }
    EXPECT_EQ(failures.load(), 0);
    std::vector<std::vector<ObjectId>> by_partition(pids.size());
    for (size_t slot = 0; slot < acked.size(); ++slot) {
      std::vector<ObjectId>& rows = by_partition[slot / kClientsPerPartition];
      rows.insert(rows.end(), acked[slot].begin(), acked[slot].end());
    }
    return by_partition;
  }

  net::LoopbackTransport transport_;
  Node a_;
  Node b_;
};

// --- Partition directory ----------------------------------------------------

TEST_F(ShardTest, DirectoryCatalogsAndSurvivesReopen) {
  auto alpha = a_.directory()->Create("alpha", TenantParams());
  ASSERT_TRUE(alpha.ok());
  auto beta = a_.directory()->Create("beta", TenantParams());
  ASSERT_TRUE(beta.ok());
  EXPECT_NE(alpha->id, beta->id);
  // Names are unique.
  EXPECT_EQ(a_.directory()->Create("alpha", TenantParams()).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(a_.directory()->MarkMoved(beta->id, "node-b").ok());

  a_.Crash();
  a_.Reopen();

  // The catalog — names, ids, ownership, epochs — came back from the store.
  auto entries = a_.directory()->List();
  ASSERT_EQ(entries.size(), 2u);
  auto found = a_.directory()->Lookup("alpha");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->id, alpha->id);
  EXPECT_FALSE(found->moved);
  found = a_.directory()->Lookup("beta");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->moved);
  EXPECT_EQ(found->moved_to, "node-b");
  EXPECT_GT(found->epoch, beta->epoch);

  // Drop removes the entry and the partition's chunks in one commit.
  ASSERT_TRUE(a_.directory()->Drop("beta").ok());
  EXPECT_FALSE(a_.chunks()->PartitionExists(beta->id));
  EXPECT_EQ(a_.directory()->Drop("beta").code(), StatusCode::kNotFound);
}

TEST_F(ShardTest, PartitionCrudOverTheWire) {
  StartBoth();
  auto client = a_.NewClient(&transport_);

  auto accounts = client->PartitionCreate("accounts");
  ASSERT_TRUE(accounts.ok());
  auto orders = client->PartitionCreate("orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ(client->PartitionCreate("accounts").status().code(),
            StatusCode::kAlreadyExists);

  auto list = client->PartitionList();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
  auto looked = client->PartitionLookup("orders");
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(looked->id, *orders);

  // A freshly created partition serves transactions right away.
  ASSERT_TRUE(client->Begin(*accounts).ok());
  auto id = client->Insert(BlobValue("balance=10"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());

  ASSERT_TRUE(client->PartitionDrop("orders").ok());
  EXPECT_EQ(client->PartitionLookup("orders").status().code(),
            StatusCode::kNotFound);
  // Begin only queues; the call that sends it reports the server's answer.
  ASSERT_TRUE(client->Begin(*orders).ok());
  EXPECT_EQ(client->Commit().code(), StatusCode::kNotFound);
}

// --- Cross-partition isolation at the wire boundary -------------------------

TEST_F(ShardTest, CrossPartitionIsolationOverTheWire) {
  StartBoth();
  auto admin = a_.NewClient(&transport_);
  auto accounts = admin->PartitionCreate("accounts");
  ASSERT_TRUE(accounts.ok());
  auto orders = admin->PartitionCreate("orders");
  ASSERT_TRUE(orders.ok());

  // With several partitions served there is no default route: begin must
  // name one, and unknown ids are refused. Begin only queues, so the call
  // that sends it reports the refusal, and no transaction is left open.
  ASSERT_TRUE(admin->Begin().ok());
  EXPECT_EQ(admin->Insert(BlobValue("nowhere")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(admin->in_transaction());
  ASSERT_TRUE(admin->Begin(999).ok());
  EXPECT_EQ(admin->Commit().code(), StatusCode::kNotFound);

  auto alice = a_.NewClient(&transport_);
  ASSERT_TRUE(alice->Begin(*accounts).ok());
  auto account_row = alice->Insert(BlobValue("alice: 100"));
  ASSERT_TRUE(account_row.ok());
  ASSERT_TRUE(alice->Commit().ok());
  EXPECT_EQ(account_row->partition, *accounts);

  // A session begun on `orders` cannot address `accounts` rows — reads and
  // writes with a foreign id are rejected before they reach any store.
  auto bob = a_.NewClient(&transport_);
  ASSERT_TRUE(bob->Begin(*orders).ok());
  EXPECT_EQ(bob->Get(*account_row).status().code(),
            StatusCode::kInvalidArgument);
  // A Put is queued; the call that sends it reports its error, and that
  // call's own request never runs.
  ASSERT_TRUE(bob->Put(*account_row, BlobValue("alice: 0")).ok());
  Status put = bob->Insert(BlobValue("order #0")).status();
  EXPECT_EQ(put.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(put.message().find(account_row->ToString()), std::string::npos)
      << put;
  EXPECT_EQ(bob->Delete(*account_row).code(), StatusCode::kInvalidArgument);
  auto order_row = bob->Insert(BlobValue("order #1"));
  ASSERT_TRUE(order_row.ok());
  EXPECT_EQ(order_row->partition, *orders);
  ASSERT_TRUE(bob->Commit().ok());

  // The foreign write attempts above left `accounts` untouched.
  ASSERT_TRUE(alice->BeginReadOnly(*accounts).ok());
  auto row = alice->Get(*account_row);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(AsBlob(*row).value, "alice: 100");
  ASSERT_TRUE(alice->Abort().ok());
}

// --- Concurrent multi-partition traffic (one group-commit queue) ------------

TEST_F(ShardTest, ConcurrentTrafficAcrossFourPartitions) {
  StartBoth();
  std::vector<PartitionId> pids = CreatePartitions();
  // Every commit of every partition parks on the server's one queue; all
  // must ack, and every acked row must land in the partition its session
  // was begun on.
  std::vector<std::vector<ObjectId>> acked = RunPartitionedInserts(pids);

  auto reader = a_.NewClient(&transport_);
  for (int p = 0; p < kPartitions; ++p) {
    ASSERT_TRUE(reader->BeginReadOnly(pids[p]).ok());
    for (ObjectId id : acked[p]) {
      EXPECT_EQ(id.partition, pids[p]);
      EXPECT_TRUE(reader->Get(id).ok()) << id.ToString();
    }
    ASSERT_TRUE(reader->Abort().ok());
  }
}

TEST_F(ShardTest, CommitsOfEveryPartitionAreCountedOnce) {
  StartBoth();
  std::vector<PartitionId> pids = CreatePartitions();
  ScopedMetrics metrics;
  uint64_t write_txns = 0;
  for (const std::vector<ObjectId>& rows : RunPartitionedInserts(pids)) {
    write_txns += rows.size();
  }
  EXPECT_EQ(write_txns, static_cast<uint64_t>(kPartitions *
                                              kClientsPerPartition *
                                              kTxnsPerClient));
  ExpectEachWriteCommitCountedOnce(write_txns);
}

// --- Per-partition gauges ----------------------------------------------------

TEST_F(ShardTest, DroppedOrMovedPartitionLeavesNoGauges) {
  ScopedMetrics metrics;
  StartBoth();
  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  auto kept = source->PartitionCreate("kept");
  auto gone = source->PartitionCreate("gone");
  ASSERT_TRUE(kept.ok() && gone.ok());

  // Gauges are process-wide, so only node a's snapshots are fetched: a
  // node publishes the gauges of the partitions it serves.
  std::map<std::string, double> gauges;
  auto fetch = [&] {
    auto snapshot = source->FetchStats();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    gauges = snapshot->gauges;
  };
  auto fields_of = [&](PartitionId pid) {
    const std::string prefix = "shard.partition." + std::to_string(pid) + ".";
    std::vector<std::string> fields;
    for (const auto& [name, value] : gauges) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        fields.push_back(name.substr(prefix.size()));
      }
    }
    return fields;
  };
  const std::vector<std::string> kFields = {"commits", "sessions", "state"};

  fetch();
  EXPECT_EQ(fields_of(*gone), kFields);
  EXPECT_EQ(gauges["shard.partitions"], 2);

  ASSERT_TRUE(source->PartitionDrop("gone").ok());
  fetch();
  EXPECT_TRUE(fields_of(*gone).empty());
  EXPECT_EQ(fields_of(*kept), kFields);
  EXPECT_EQ(gauges["shard.partitions"], 1);

  // kHandoffFinish stops serving the moved partition here.
  ASSERT_TRUE(
      MovePartition(*source, *target, "kept", b_.server()->address()).ok());
  fetch();
  EXPECT_TRUE(fields_of(*kept).empty());
  EXPECT_EQ(gauges["shard.partitions"], 0);
}

// --- Live hand-off -----------------------------------------------------------

TEST_F(ShardTest, HandoffMovesDataAndRedirectsClients) {
  StartBoth();
  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  auto pid = source->PartitionCreate("accounts");
  ASSERT_TRUE(pid.ok());

  std::vector<std::pair<ObjectId, std::string>> rows;
  ASSERT_TRUE(source->Begin(*pid).ok());
  for (int i = 0; i < 3; ++i) {
    std::string value = "row " + std::to_string(i);
    auto id = source->Insert(BlobValue(value));
    ASSERT_TRUE(id.ok());
    rows.emplace_back(*id, value);
  }
  ASSERT_TRUE(source->Commit().ok());

  ASSERT_TRUE(
      MovePartition(*source, *target, "accounts", b_.server()->address())
          .ok());

  // The source now redirects — a retryable kMoved carrying the new address,
  // reported by the call that sends the begin.
  ASSERT_TRUE(source->Begin(*pid).ok());
  Status moved = source->Commit();
  EXPECT_EQ(moved.code(), StatusCode::kMoved);
  EXPECT_EQ(moved.message(), b_.server()->address());
  auto entry = source->PartitionLookup("accounts");
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->moved);

  // Every row is on the target under its original id, and the partition
  // takes new writes there.
  ASSERT_TRUE(target->Begin(*pid).ok());
  for (const auto& [id, value] : rows) {
    auto row = target->Get(id);
    ASSERT_TRUE(row.ok()) << id.ToString();
    EXPECT_EQ(AsBlob(*row).value, value);
  }
  ASSERT_TRUE(target->Insert(BlobValue("post-move row")).ok());
  ASSERT_TRUE(target->Commit().ok());
}

TEST_F(ShardTest, HandoffUnderLiveTrafficLosesNoAckedCommit) {
  StartBoth();
  auto admin = a_.NewClient(&transport_);
  auto pid = admin->PartitionCreate("accounts");
  ASSERT_TRUE(pid.ok());

  // Writers hammer the partition while it moves. Each follows the client
  // contract: on kMoved, retry against the target. Every acknowledged
  // commit is recorded and must be readable after the move.
  constexpr int kWriters = 3;
  std::atomic<bool> move_done{false};
  std::atomic<int> redirects{0};
  std::atomic<int> stuck{0};
  std::vector<std::vector<std::pair<ObjectId, std::string>>> acked(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto on_source = a_.NewClient(&transport_);
      auto on_target = b_.NewClient(&transport_);
      bool use_target = false;
      int written = 0;
      int attempts = 0;
      // Keep writing until the move finished AND at least one write landed
      // after it — so every writer provably crosses the redirect.
      int writes_after_move = 0;
      while (writes_after_move < 1 || written < 5) {
        if (++attempts > 3000) {
          stuck.fetch_add(1);
          return;
        }
        const bool move_was_done = move_done.load();
        TdbClient* client = use_target ? on_target.get() : on_source.get();
        if (!client->Begin(*pid).ok()) {
          stuck.fetch_add(1);  // Begin only queues; nothing may be open here
          return;
        }
        // The begin rides with the insert, which reports the server's
        // answer to it.
        std::string value =
            "w" + std::to_string(w) + " n" + std::to_string(written);
        auto id = client->Insert(BlobValue(value));
        if (id.status().code() == StatusCode::kMoved) {
          // Redirect (or mid-drain retry): switch to the target and retry.
          if (!use_target) {
            use_target = true;
            redirects.fetch_add(1);
          }
          continue;
        }
        if (!id.ok()) {
          // e.g. the target has not activated the partition yet.
          if (client->in_transaction()) {
            (void)client->Abort();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        if (!client->Commit().ok()) {
          continue;  // not acknowledged: no durability claim to check
        }
        acked[w].emplace_back(*id, value);
        ++written;
        if (move_was_done) {
          ++writes_after_move;
        }
      }
    });
  }

  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  Status moved = MovePartition(*source, *target, "accounts",
                               b_.server()->address());
  move_done.store(true);
  for (std::thread& t : writers) {
    t.join();
  }
  ASSERT_TRUE(moved.ok()) << moved.ToString();
  EXPECT_EQ(stuck.load(), 0);
  // Every writer ended up on the target (their post-move write cannot have
  // landed anywhere else).
  EXPECT_EQ(redirects.load(), kWriters);

  // Zero acked-commit loss: every acknowledged row reads back on the target.
  auto reader = b_.NewClient(&transport_);
  size_t total = 0;
  ASSERT_TRUE(reader->BeginReadOnly(*pid).ok());
  for (const auto& rows : acked) {
    for (const auto& [id, value] : rows) {
      auto row = reader->Get(id);
      ASSERT_TRUE(row.ok()) << id.ToString();
      EXPECT_EQ(AsBlob(*row).value, value);
      ++total;
    }
  }
  ASSERT_TRUE(reader->Abort().ok());
  EXPECT_GE(total, static_cast<size_t>(kWriters * 5));
}

// --- Hand-off crash injection -----------------------------------------------

// Shared setup for the crash-stage tests: partition "accounts" on node A
// with one committed row; returns its id.
ObjectId SeedAccounts(TdbClient& client, PartitionId pid,
                      const std::string& value) {
  EXPECT_TRUE(client.Begin(pid).ok());
  auto id = client.Insert(BlobValue(value));
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(client.Commit().ok());
  return *id;
}

TEST_F(ShardTest, SourceCrashBeforeCutoverIsRecoverableAndRetryable) {
  StartBoth();
  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  auto pid = source->PartitionCreate("accounts");
  ASSERT_TRUE(pid.ok());
  ObjectId row = SeedAccounts(*source, *pid, "survives");

  // The hand-off got as far as shipping the full copy...
  auto full = source->HandoffExport(*pid, 0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(target->HandoffImport(*pid, 0, full->stream).ok());

  // ...then the source died. Ownership never changed (the directory's
  // serving state is the durable truth), so after recovery it serves as if
  // the hand-off never happened.
  a_.Crash();
  a_.Reopen();
  a_.Start(&transport_, "node-a");
  auto recovered = a_.NewClient(&transport_);
  ASSERT_TRUE(recovered->Begin(*pid).ok());
  auto read = recovered->Get(row);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(AsBlob(*read).value, "survives");
  ASSERT_TRUE(recovered->Abort().ok());

  // The retry restarts from a fresh full export; the target's stale staged
  // stream is reset by it (a full stream restarts the staging buffer).
  ASSERT_TRUE(
      MovePartition(*recovered, *target, "accounts", b_.server()->address())
          .ok());
  ASSERT_TRUE(target->BeginReadOnly(*pid).ok());
  EXPECT_TRUE(target->Get(row).ok());
  ASSERT_TRUE(target->Abort().ok());
  ASSERT_TRUE(recovered->Begin(*pid).ok());
  EXPECT_EQ(recovered->Commit().code(), StatusCode::kMoved);
}

TEST_F(ShardTest, TornStreamFailsActivationAtomicallyWithoutTamperAlarm) {
  StartBoth();
  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  auto pid = source->PartitionCreate("accounts");
  ASSERT_TRUE(pid.ok());
  ObjectId row = SeedAccounts(*source, *pid, "torn transfer");

  auto full = source->HandoffExport(*pid, 0);
  ASSERT_TRUE(full.ok());

  // The stream tears in transit: the target stages only a prefix. Activate
  // must fail atomically — and as corruption, not a tamper alarm: a torn
  // copy is an operational fault, not evidence of an attack.
  Bytes torn(full->stream.begin(),
             full->stream.begin() + full->stream.size() / 2);
  ASSERT_TRUE(target->HandoffImport(*pid, 0, torn).ok());
  Status activated = target->HandoffActivate(*pid, "accounts");
  ASSERT_FALSE(activated.ok());
  EXPECT_EQ(activated.code(), StatusCode::kCorruption);
  ASSERT_TRUE(target->Begin(*pid).ok());
  EXPECT_EQ(target->Commit().code(), StatusCode::kNotFound);

  // A tampered stream (bit flipped mid-payload) IS a tamper alarm — the
  // true-positive case — and is equally atomic.
  Bytes flipped = full->stream;
  flipped[flipped.size() / 2] ^= 0x40;
  ASSERT_TRUE(target->HandoffImport(*pid, 0, flipped).ok());
  activated = target->HandoffActivate(*pid, "accounts");
  ASSERT_FALSE(activated.ok());
  EXPECT_EQ(activated.code(), StatusCode::kTamperDetected);
  ASSERT_TRUE(target->Begin(*pid).ok());
  EXPECT_EQ(target->Commit().code(), StatusCode::kNotFound);

  // The source never stopped serving; the intact retry completes the move.
  ASSERT_TRUE(source->Begin(*pid).ok());
  ASSERT_TRUE(source->Abort().ok());
  ASSERT_TRUE(
      MovePartition(*source, *target, "accounts", b_.server()->address())
          .ok());
  ASSERT_TRUE(target->BeginReadOnly(*pid).ok());
  auto read = target->Get(row);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(AsBlob(*read).value, "torn transfer");
  ASSERT_TRUE(target->Abort().ok());
}

TEST_F(ShardTest, SourceCrashDuringCutoverRollsBackToServing) {
  StartBoth();
  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  auto pid = source->PartitionCreate("accounts");
  ASSERT_TRUE(pid.ok());
  ObjectId row = SeedAccounts(*source, *pid, "mid-cutover");

  auto full = source->HandoffExport(*pid, 0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(target->HandoffImport(*pid, 0, full->stream).ok());

  // Cut-over succeeded — the source is draining and refusing new
  // transactions — but the coordinator (and the source) die before the
  // finish step persisted anything.
  auto final_delta =
      source->HandoffCutover(*pid, b_.server()->address(), full->snapshot);
  ASSERT_TRUE(final_delta.ok());
  ASSERT_TRUE(source->Begin(*pid).ok());
  EXPECT_EQ(source->Commit().code(), StatusCode::kMoved);

  a_.Crash();
  a_.Reopen();
  a_.Start(&transport_, "node-a");

  // Draining was transient in-memory state: the recovered source serves
  // again, with every acknowledged commit intact. No acked commit can have
  // been lost in the window — a draining partition admits no writers.
  auto recovered = a_.NewClient(&transport_);
  ASSERT_TRUE(recovered->Begin(*pid).ok());
  auto read = recovered->Get(row);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(AsBlob(*read).value, "mid-cutover");
  ASSERT_TRUE(recovered->Commit().ok());

  // The target never activated its staged chain; the retry ships a fresh
  // full copy and completes.
  ASSERT_TRUE(
      MovePartition(*recovered, *target, "accounts", b_.server()->address())
          .ok());
  ASSERT_TRUE(target->BeginReadOnly(*pid).ok());
  EXPECT_TRUE(target->Get(row).ok());
  ASSERT_TRUE(target->Abort().ok());
}

TEST_F(ShardTest, AbortAfterCutoverResumesServingWithoutLoss) {
  StartBoth();
  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  auto pid = source->PartitionCreate("accounts");
  ASSERT_TRUE(pid.ok());
  ObjectId row = SeedAccounts(*source, *pid, "aborted move");

  auto full = source->HandoffExport(*pid, 0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(target->HandoffImport(*pid, 0, full->stream).ok());
  auto final_delta =
      source->HandoffCutover(*pid, b_.server()->address(), full->snapshot);
  ASSERT_TRUE(final_delta.ok());
  ASSERT_TRUE(source->Begin(*pid).ok());
  EXPECT_EQ(source->Commit().code(), StatusCode::kMoved);

  // The coordinator decides to abort (say, the target is unhealthy): an
  // empty-target finish reclaims ownership without a restart.
  ASSERT_TRUE(source->HandoffFinish(*pid, "").ok());
  ASSERT_TRUE(source->Begin(*pid).ok());
  EXPECT_TRUE(source->Get(row).ok());
  ASSERT_TRUE(source->Insert(BlobValue("post-abort write")).ok());
  ASSERT_TRUE(source->Commit().ok());
}

TEST_F(ShardTest, FinishedMoveSurvivesSourceRestart) {
  StartBoth();
  auto source = a_.NewClient(&transport_);
  auto target = b_.NewClient(&transport_);
  auto pid = source->PartitionCreate("accounts");
  ASSERT_TRUE(pid.ok());
  ObjectId row = SeedAccounts(*source, *pid, "moved for good");

  ASSERT_TRUE(
      MovePartition(*source, *target, "accounts", b_.server()->address())
          .ok());

  // The moved state is durable on the source: after a crash it still
  // redirects rather than serving a stale copy (split-brain prevention) —
  // though the data is retained until an operator drops it.
  a_.Crash();
  a_.Reopen();
  a_.Start(&transport_, "node-a");
  auto recovered = a_.NewClient(&transport_);
  ASSERT_TRUE(recovered->Begin(*pid).ok());
  Status begun = recovered->Get(row).status();
  EXPECT_EQ(begun.code(), StatusCode::kMoved);
  EXPECT_EQ(begun.message(), b_.server()->address());
  EXPECT_FALSE(recovered->in_transaction());
  EXPECT_TRUE(a_.chunks()->PartitionExists(*pid));

  ASSERT_TRUE(target->BeginReadOnly(*pid).ok());
  auto read = target->Get(row);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(AsBlob(*read).value, "moved for good");
  ASSERT_TRUE(target->Abort().ok());
}

// --- Engine state machine (unit level) ---------------------------------------

TEST_F(ShardTest, EngineAdmissionFollowsTheHandoffStateMachine) {
  auto entry = a_.directory()->Create("accounts", TenantParams());
  ASSERT_TRUE(entry.ok());
  shard::EngineRegistry registry(a_.chunks(), a_.registry());
  auto engine = registry.Add(entry->id);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(registry.Add(entry->id).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Add(999).status().code(), StatusCode::kNotFound);

  // Serving: transactions are admitted and counted until finished.
  auto txn = (*engine)->Begin();
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ((*engine)->active_txns(), 1u);
  EXPECT_FALSE((*engine)->WaitDrained(std::chrono::milliseconds(10)));

  // Draining: no new admissions, but the in-flight one runs to completion
  // and its finish is what drains the engine.
  ASSERT_TRUE((*engine)->StartDraining("node-b").ok());
  EXPECT_EQ((*engine)->Begin().status().code(), StatusCode::kMoved);
  EXPECT_EQ((*engine)->BeginReadOnly().status().code(), StatusCode::kMoved);
  (*txn)->Abort();
  txn->reset();
  (*engine)->TxnFinished();
  EXPECT_TRUE((*engine)->WaitDrained(std::chrono::milliseconds(10)));

  // Rollback path: resume serving clears the redirect.
  ASSERT_TRUE((*engine)->ResumeServing().ok());
  auto again = (*engine)->Begin();
  ASSERT_TRUE(again.ok());
  (*again)->Abort();
  again->reset();
  (*engine)->TxnFinished();

  // Moved is terminal: admissions carry the target address and the state
  // cannot be resumed.
  ASSERT_TRUE((*engine)->StartDraining("node-b").ok());
  ASSERT_TRUE((*engine)->MarkMoved("node-b").ok());
  Status refused = (*engine)->Begin().status();
  EXPECT_EQ(refused.code(), StatusCode::kMoved);
  EXPECT_EQ(refused.message(), "node-b");
  EXPECT_EQ((*engine)->ResumeServing().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace tdb::server
