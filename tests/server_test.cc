// Tests for the networked service layer: wire round trips over the loopback
// transport, session lifecycle (limits, idle timeouts, graceful shutdown),
// group-commit batching under concurrent clients, end-to-end tamper
// detection, and durability of acknowledged commits.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/net/loopback.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/platform/trusted_store.h"
#include "src/server/blob.h"
#include "src/server/client.h"
#include "src/server/frame_wait.h"
#include "src/server/server.h"
#include "src/store/untrusted_store.h"
#include "tests/metrics_test_util.h"

namespace tdb::server {
namespace {

// Either side of a hop polls for tens of microseconds before it parks in
// Recv; kAnswerLate is far past that. kPeerIo bounds every wait that should
// end long before it.
constexpr auto kAnswerLate = std::chrono::milliseconds(50);
constexpr auto kPeerIo = std::chrono::milliseconds(5000);

// Concurrent writers of the group-commit tests.
constexpr int kWriters = 8;
constexpr int kCommitsPerWriter = 50;

const BlobValue& AsBlob(const ObjectPtr& object) {
  return dynamic_cast<const BlobValue&>(*object);
}

// The server's snapshot, fetched over the wire and rendered as JSON, for
// checks by name.
Result<std::string> FetchStatsJson(TdbClient& client) {
  TDB_ASSIGN_OR_RETURN(obs::StatsSnapshot snapshot, client.FetchStats());
  return obs::ToJson(snapshot);
}

class ServerTest : public ::testing::Test {
 protected:
  // The store models a little device latency per flush (as the bench
  // does): with instant flushes, commits can drain faster than concurrent
  // sessions queue up and GroupCommitBatchesConcurrentCommits would depend
  // on scheduler luck to ever see a batch form.
  ServerTest()
      : store_({.segment_size = 8192,
                .num_segments = 512,
                .flush_latency = std::chrono::microseconds(200)}),
        secret_(Bytes(32, 0xA5)) {
    chunk_options_.validation.mode = ValidationMode::kCounter;
    auto cs = ChunkStore::Create(
        &store_, TrustedServices{&secret_, nullptr, &counter_}, chunk_options_);
    EXPECT_TRUE(cs.ok());
    chunks_ = std::move(*cs);
    EXPECT_TRUE(RegisterType<BlobValue>(registry_).ok());
    auto pid = chunks_->AllocatePartition();
    ChunkStore::Batch batch;
    batch.WritePartition(
        *pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)});
    EXPECT_TRUE(chunks_->Commit(std::move(batch)).ok());
    partition_ = *pid;
  }

  void StartServer(TdbServerOptions options = {}) {
    server_ = std::make_unique<TdbServer>(chunks_.get(), partition_,
                                          &registry_, options);
    ASSERT_TRUE(server_->Start(&transport_, "tdb").ok());
  }

  std::unique_ptr<TdbClient> NewClient() {
    auto client = std::make_unique<TdbClient>(&registry_);
    EXPECT_TRUE(client->Connect(&transport_, server_->address()).ok());
    return client;
  }

  // Seeds one object per writer in one commit, then runs kWriters
  // concurrent sessions that each commit kCommitsPerWriter puts of their
  // own object, so transactions never conflict and every commit reaches
  // the commit path. Returns the seeded ids.
  std::vector<ObjectId> RunConcurrentWriters() {
    std::vector<ObjectId> ids(kWriters);
    auto setup = NewClient();
    EXPECT_TRUE(setup->Begin().ok());
    for (int i = 0; i < kWriters; ++i) {
      auto id = setup->Insert(BlobValue("seed"));
      EXPECT_TRUE(id.ok());
      ids[i] = id.ok() ? *id : ObjectId{};
    }
    EXPECT_TRUE(setup->Commit().ok());

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int c = 0; c < kWriters; ++c) {
      threads.emplace_back([&, c] {
        TdbClient client(&registry_);
        if (!client.Connect(&transport_, server_->address()).ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kCommitsPerWriter; ++i) {
          if (!client.Begin().ok() ||
              !client.Put(ids[c], BlobValue("v" + std::to_string(i))).ok() ||
              !client.Commit().ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_EQ(failures.load(), 0);
    return ids;
  }

  MemUntrustedStore store_;
  MemSecretStore secret_;
  MemMonotonicCounter counter_;
  ChunkStoreOptions chunk_options_;
  TypeRegistry registry_;
  std::unique_ptr<ChunkStore> chunks_;
  PartitionId partition_ = 0;
  net::LoopbackTransport transport_;
  std::unique_ptr<TdbServer> server_;
};

TEST_F(ServerTest, PingRoundTrip) {
  StartServer();
  auto client = NewClient();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, InsertIsVisibleToOtherSessionsAfterCommit) {
  StartServer();
  auto writer = NewClient();
  ASSERT_TRUE(writer->Begin().ok());
  auto id = writer->Insert(BlobValue("hello over the wire"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(writer->Commit().ok());

  auto reader = NewClient();
  ASSERT_TRUE(reader->Begin().ok());
  auto blob = reader->Get(*id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(AsBlob(*blob).value, "hello over the wire");
  EXPECT_TRUE(reader->Abort().ok());
}

TEST_F(ServerTest, PutAndDeleteRoundTrip) {
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("v1"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("v2")).ok());
  ASSERT_TRUE(client->Commit().ok());

  ASSERT_TRUE(client->Begin().ok());
  EXPECT_EQ(AsBlob(*client->Get(*id)).value, "v2");
  ASSERT_TRUE(client->Delete(*id).ok());
  ASSERT_TRUE(client->Commit().ok());

  ASSERT_TRUE(client->Begin().ok());
  EXPECT_EQ(client->Get(*id).status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, AbortDiscardsBufferedWrites) {
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("keep"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("discard")).ok());
  ASSERT_TRUE(client->Abort().ok());

  ASSERT_TRUE(client->Begin().ok());
  EXPECT_EQ(AsBlob(*client->Get(*id)).value, "keep");
}

TEST_F(ServerTest, ProtocolErrorsComeBackAsStatuses) {
  StartServer();
  auto client = NewClient();

  // Data operations need an open transaction.
  EXPECT_EQ(client->Get(ObjectId(partition_, 0, 0)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client->Commit().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(client->Begin().ok());
  // Double begin is rejected; the open transaction survives.
  EXPECT_EQ(client->Begin().code(), StatusCode::kFailedPrecondition);

  // Reading an allocated-but-never-written id.
  EXPECT_EQ(client->Get(ObjectId(partition_, 0, 12345)).status().code(),
            StatusCode::kNotFound);

  // Ids outside the served partition — another partition, the system
  // partition's leader chunks, map chunks — never reach the stores.
  EXPECT_EQ(client->Get(ObjectId(partition_ + 1, 0, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Get(ObjectId(kSystemPartition, 0, partition_))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Get(ObjectId(partition_, 1, 0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, MalformedFrameGetsErrorThenHangup) {
  StartServer();
  auto conn = transport_.Connect(server_->address(),
                                 std::chrono::milliseconds(1000));
  ASSERT_TRUE(conn.ok());
  Bytes junk = {0x00, 0x01, 0x02, 0x03};
  ASSERT_TRUE((*conn)->Send(junk, std::chrono::milliseconds(1000)).ok());
  auto frame = (*conn)->Recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(frame.ok());
  auto response = DecodeResponses(*frame);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->size(), 1u);
  EXPECT_FALSE(StatusFromResponse((*response)[0]).ok());
  // The server no longer trusts the stream and closes it.
  EXPECT_EQ((*conn)->Recv(std::chrono::milliseconds(2000)).status().code(),
            StatusCode::kIoError);
}

TEST_F(ServerTest, SessionLimitRejectsWithBusyResponse) {
  ScopedMetrics metrics;
  StartServer({.max_sessions = 1});
  auto first = NewClient();
  ASSERT_TRUE(first->Ping().ok());  // the session is now live server-side

  auto conn = transport_.Connect(server_->address(),
                                 std::chrono::milliseconds(1000));
  ASSERT_TRUE(conn.ok());
  // The server answers over-limit connections unprompted, then closes.
  auto frame = (*conn)->Recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(frame.ok());
  auto response = DecodeResponses(*frame);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->size(), 1u);
  EXPECT_EQ(StatusFromResponse((*response)[0]).code(),
            StatusCode::kFailedPrecondition);

  // Closing the first session frees the slot.
  first->Disconnect();
  std::unique_ptr<TdbClient> second;
  for (int i = 0; i < 100; ++i) {
    second = std::make_unique<TdbClient>(&registry_);
    ASSERT_TRUE(second->Connect(&transport_, server_->address()).ok());
    if (second->Ping().ok()) {
      break;
    }
    second->Disconnect();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(second->Ping().ok());
  EXPECT_GE(metrics.Counter("server.sessions.rejected"), 1u);
}

TEST_F(ServerTest, IdleSessionLosesItsLocks) {
  ScopedMetrics metrics;
  StartServer({.idle_timeout = std::chrono::milliseconds(100),
               .lock_timeout = std::chrono::milliseconds(100)});
  auto holder = NewClient();
  ASSERT_TRUE(holder->Begin().ok());
  auto id = holder->Insert(BlobValue("locked"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(holder->Commit().ok());
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->GetForUpdate(*id).ok());

  // The holder now goes silent; the server aborts its transaction after the
  // idle timeout, releasing the exclusive lock for the second session.
  auto contender = NewClient();
  ASSERT_TRUE(contender->Begin().ok());
  Status status = TimeoutError("never tried");
  for (int i = 0; i < 100; ++i) {
    status = contender->GetForUpdate(*id).status();
    if (status.ok()) {
      break;
    }
    ASSERT_EQ(status.code(), StatusCode::kTimeout);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(status.ok());
  EXPECT_GE(metrics.Counter("server.idle_timeouts"), 1u);
}

TEST_F(ServerTest, GroupCommitBatchesConcurrentCommits) {
  ScopedMetrics metrics;
  StartServer({.group_commit = true});
  std::vector<ObjectId> ids = RunConcurrentWriters();

  bool saw_batch_histogram = false;
  for (const auto& h : obs::MetricsRegistry::Instance().Histograms()) {
    if (h.name == "object.group_commit_batch") {
      saw_batch_histogram = true;
      EXPECT_GT(h.max, 1.0)
          << "no commit was ever coalesced with another despite " << kWriters
          << " concurrent clients";
    }
  }
  EXPECT_TRUE(saw_batch_histogram);
  // The seed commit and every writer's, each counted once.
  ExpectEachWriteCommitCountedOnce(1 + kWriters * kCommitsPerWriter);

  // Every client's last write is in place.
  auto check = NewClient();
  ASSERT_TRUE(check->Begin().ok());
  for (int c = 0; c < kWriters; ++c) {
    auto blob = check->Get(ids[c]);
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(AsBlob(*blob).value,
              "v" + std::to_string(kCommitsPerWriter - 1));
  }
}

TEST_F(ServerTest, GroupCommitOffCommitsStraightToTheChunkStore) {
  ScopedMetrics metrics;
  StartServer({.group_commit = false});
  RunConcurrentWriters();
  EXPECT_EQ(metrics.Counter("object.txn_commits"),
            1u + kWriters * kCommitsPerWriter);
  EXPECT_EQ(metrics.Counter("object.group_commits"), 0u);
}

TEST_F(ServerTest, TamperedChunkIsDetectedOverTheWire) {
  // cache_capacity 1: reading object B evicts A from the object cache, so
  // the next Get(A) must re-read, decrypt, and validate the tampered chunk.
  // The capacity is a total budget, so this holds on any core count (the
  // core count sets only the shard count; see ShardedLruCacheTest).
  StartServer({.cache_capacity = 1});
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto a = client->Insert(BlobValue("target of the attack"));
  auto b = client->Insert(BlobValue("cache filler"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(client->Commit().ok());

  auto loc = chunks_->DebugChunkLocation(*a);
  ASSERT_TRUE(loc.ok());
  store_.CorruptByte(loc->first.segment, loc->first.offset + loc->second / 2,
                     0x40);

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Get(*b).ok());  // evicts A
  EXPECT_EQ(client->Get(*a).status().code(), StatusCode::kTamperDetected);
}

TEST_F(ServerTest, AcknowledgedCommitSurvivesRestart) {
  StartServer();
  ObjectId id;
  {
    auto client = NewClient();
    ASSERT_TRUE(client->Begin().ok());
    auto inserted = client->Insert(BlobValue("durable"));
    ASSERT_TRUE(inserted.ok());
    id = *inserted;
    ASSERT_TRUE(client->Commit().ok());
    // The acknowledgement above is the durability point: everything below
    // models a crash right after it.
  }
  server_->Stop();
  server_.reset();
  chunks_.reset();

  auto reopened = ChunkStore::Open(
      &store_, TrustedServices{&secret_, nullptr, &counter_}, chunk_options_);
  ASSERT_TRUE(reopened.ok());
  ObjectStore objects(reopened->get(), partition_, &registry_);
  auto txn = objects.Begin();
  auto blob = txn->Get(id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(AsBlob(*blob).value, "durable");
}

TEST_F(ServerTest, StopUnblocksConnectedClients) {
  ScopedMetrics metrics;
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  server_->Stop();
  // The session connection was closed server-side; the client sees an error,
  // not a hang.
  EXPECT_FALSE(client->Ping().ok());
  // Begin only queues, so Stop can come before the session is accepted,
  // which leaves the gauge unset.
  const std::map<std::string, double> gauges =
      obs::MetricsRegistry::Instance().Gauges();
  auto active = gauges.find("server.sessions.active");
  if (active != gauges.end()) {
    EXPECT_EQ(active->second, 0.0);
  }
}

TEST_F(ServerTest, StatsCountSessionsAndRequests) {
  ScopedMetrics metrics;
  StartServer();
  {
    auto c1 = NewClient();
    auto c2 = NewClient();
    ASSERT_TRUE(c1->Ping().ok());
    ASSERT_TRUE(c2->Ping().ok());
    ASSERT_TRUE(c1->Ping().ok());
  }
  server_->Stop();  // joins the workers, so the counts below are final
  EXPECT_EQ(metrics.Counter("server.sessions.opened"), 2u);
  EXPECT_GE(metrics.Counter("server.requests"), 3u);
  EXPECT_EQ(obs::MetricsRegistry::Instance().Gauges().at(
                "server.sessions.active"),
            0.0);
}

// The loopback transport exchanges whole frames, so attacks on the framing
// layer itself — a length prefix past the kMaxFrameBytes cap, a connection
// torn down mid-frame — can only be expressed against the TCP transport
// with a raw socket. Returns -1 if the connect fails.
int RawConnect(const std::string& address) {
  auto colon = address.rfind(':');
  if (colon == std::string::npos) {
    return -1;
  }
  std::string host = address.substr(0, colon);
  int port = std::atoi(address.c_str() + colon + 1);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval timeout{.tv_sec = 3, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

TEST_F(ServerTest, TcpTransportSmokeTest) {
  net::TcpTransport tcp;
  TdbServer server(chunks_.get(), partition_, &registry_, {});
  Status started = server.Start(&tcp, "127.0.0.1:0");
  if (!started.ok()) {
    GTEST_SKIP() << "TCP unavailable in this environment: " << started;
  }
  TdbClient client(&registry_);
  ASSERT_TRUE(client.Connect(&tcp, server.address()).ok());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Begin().ok());
  auto id = client.Insert(BlobValue("over real sockets"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_TRUE(client.Begin().ok());
  auto blob = client.Get(*id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(AsBlob(*blob).value, "over real sockets");
  client.Disconnect();
  server.Stop();
}

TEST_F(ServerTest, OversizedFrameClosesTheConnectionWithoutServingIt) {
  net::TcpTransport tcp;
  TdbServer server(chunks_.get(), partition_, &registry_, {});
  Status started = server.Start(&tcp, "127.0.0.1:0");
  if (!started.ok()) {
    GTEST_SKIP() << "TCP unavailable in this environment: " << started;
  }

  int fd = RawConnect(server.address());
  ASSERT_GE(fd, 0);
  // A 4-byte big-endian length prefix one past the 16MB cap. The server must
  // reject it from the header alone — never allocate the body, never wait
  // for it to arrive — and drop the connection.
  uint32_t claimed = static_cast<uint32_t>(net::kMaxFrameBytes + 1);
  unsigned char prefix[4] = {static_cast<unsigned char>(claimed >> 24),
                             static_cast<unsigned char>(claimed >> 16),
                             static_cast<unsigned char>(claimed >> 8),
                             static_cast<unsigned char>(claimed)};
  ASSERT_EQ(::send(fd, prefix, sizeof(prefix), 0),
            static_cast<ssize_t>(sizeof(prefix)));

  // Drain until the server hangs up. It owes us nothing (no body ever
  // followed the header), so anything beyond a small error response means
  // the cap was not enforced.
  size_t received = 0;
  bool closed = false;
  char buffer[512];
  for (int i = 0; i < 64; ++i) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      closed = n == 0;
      break;
    }
    received += static_cast<size_t>(n);
  }
  ::close(fd);
  EXPECT_TRUE(closed) << "server kept the poisoned connection open";
  EXPECT_LT(received, size_t{4096});

  // The server itself is unharmed: a well-formed client is still served.
  TdbClient client(&registry_);
  ASSERT_TRUE(client.Connect(&tcp, server.address()).ok());
  EXPECT_TRUE(client.Ping().ok());
  client.Disconnect();
  server.Stop();
}

TEST_F(ServerTest, MidFrameDisconnectLeavesOtherSessionsServed) {
  net::TcpTransport tcp;
  TdbServer server(chunks_.get(), partition_, &registry_, {});
  Status started = server.Start(&tcp, "127.0.0.1:0");
  if (!started.ok()) {
    GTEST_SKIP() << "TCP unavailable in this environment: " << started;
  }

  // A healthy session with an open transaction, established first so it is
  // mid-flight while the malformed peer comes and goes.
  TdbClient healthy(&registry_);
  ASSERT_TRUE(healthy.Connect(&tcp, server.address()).ok());
  ASSERT_TRUE(healthy.Begin().ok());
  auto id = healthy.Insert(BlobValue("survives the rude neighbor"));
  ASSERT_TRUE(id.ok());

  // Promise a 64-byte frame, deliver 10 bytes, vanish.
  int fd = RawConnect(server.address());
  ASSERT_GE(fd, 0);
  unsigned char partial[14] = {0, 0, 0, 64, 'h', 'a', 'l', 'f',
                               ' ', 'a', ' ', 'f', 'r', 'a'};
  ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fd);

  // The abandoned read must not wedge a worker or poison shared state: the
  // healthy session finishes its transaction and new sessions are accepted.
  ASSERT_TRUE(healthy.Commit().ok());
  ASSERT_TRUE(healthy.Begin().ok());
  auto blob = healthy.Get(*id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(AsBlob(*blob).value, "survives the rude neighbor");
  ASSERT_TRUE(healthy.Abort().ok());

  TdbClient late(&registry_);
  ASSERT_TRUE(late.Connect(&tcp, server.address()).ok());
  EXPECT_TRUE(late.Ping().ok());

  healthy.Disconnect();
  late.Disconnect();
  server.Stop();
}

TEST_F(ServerTest, ScanOverNeverWrittenIdsFailsCleanlyPerKey) {
  StartServer();
  auto writer = NewClient();
  ASSERT_TRUE(writer->Begin().ok());
  auto id = writer->Insert(BlobValue("the only record"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(writer->Commit().ok());

  // A scan is issued as consecutive point reads (the wire protocol has no
  // range op), so a scan that runs off the end of the written key space is
  // a burst of Gets on allocated-but-never-written ranks. Each one must
  // come back kNotFound without disturbing the session.
  auto reader = NewClient();
  ASSERT_TRUE(reader->Begin().ok());
  for (uint32_t rank = 50000; rank < 50008; ++rank) {
    EXPECT_EQ(reader->Get(ObjectId(partition_, 0, rank)).status().code(),
              StatusCode::kNotFound)
        << "rank " << rank;
  }
  // The locking read path answers the same way.
  EXPECT_EQ(
      reader->GetForUpdate(ObjectId(partition_, 0, 50008)).status().code(),
      StatusCode::kNotFound);

  // kNotFound is advisory, not fatal: the same transaction still reads real
  // data and commits.
  auto blob = reader->Get(*id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(AsBlob(*blob).value, "the only record");
  EXPECT_TRUE(reader->Commit().ok());
}

// --- Deferred begin and put: one frame per blind write ---------------------

// Samples recorded in histogram `name` since the registry's last reset.
uint64_t HistogramCount(const std::string& name) {
  for (const auto& h : obs::MetricsRegistry::Instance().Histograms()) {
    if (h.name == name) {
      return h.count;
    }
  }
  return 0;
}

Request RequestOf(Op op) {
  Request request;
  request.op = op;
  return request;
}

TEST_F(ServerTest, BlindWriteTransactionSendsOneFrame) {
  StartServer();
  // Set up in process: a set-up frame's spans, recorded after its response
  // is sent, could land after the reset below.
  auto setup = server_->object_store()->Begin();
  auto id = setup->Insert(std::make_shared<BlobValue>("v1"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(setup->Commit().ok());
  auto client = NewClient();

  auto& metrics = obs::MetricsRegistry::Instance();
  metrics.Reset();
  metrics.Enable();
  const uint64_t requests_before = metrics.GetCounter("server.requests");
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("v2")).ok());
  ASSERT_TRUE(client->Commit().ok());
  EXPECT_EQ(metrics.GetCounter("server.requests"), requests_before + 3);
  // The server records a frame's spans after sending its response; Stop
  // joins the session worker, so every span is recorded below.
  server_->Stop();
  metrics.Disable();

  // The client timed one round trip, under the frame's last op.
  EXPECT_EQ(HistogramCount("wire.rtt.commit.us"), 1u);
  EXPECT_EQ(HistogramCount("wire.rtt.begin.us"), 0u);
  EXPECT_EQ(HistogramCount("wire.rtt.put.us"), 0u);
  // One frame reached the server, and it still ran and timed each request.
  EXPECT_EQ(HistogramCount("wire.stage.handle_us"), 1u);
  EXPECT_EQ(HistogramCount("wire.op.begin.us"), 1u);
  EXPECT_EQ(HistogramCount("wire.op.put.us"), 1u);
  EXPECT_EQ(HistogramCount("wire.op.commit.us"), 1u);

  auto txn = server_->object_store()->Begin();
  auto blob = txn->Get(*id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(AsBlob(*blob).value, "v2");
}

TEST_F(ServerTest, GetSeesTheBufferedPutOfTheSameId) {
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("committed"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());

  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("buffered")).ok());
  auto read = client->Get(*id);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(AsBlob(*read).value, "buffered");
  ASSERT_TRUE(client->Abort().ok());

  ASSERT_TRUE(client->Begin().ok());
  EXPECT_EQ(AsBlob(*client->Get(*id)).value, "committed");
  EXPECT_TRUE(client->Abort().ok());
}

TEST_F(ServerTest, BufferedForeignPutFailsTheCallThatSendsIt) {
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("before"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());
  const ObjectId foreign(partition_ + 1, 0, 0);

  // The queued puts ride with the commit. The foreign one fails the frame,
  // so the commit never runs, nothing in the frame commits, and the server
  // finishes the transaction as it does after a failed commit.
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("after")).ok());
  ASSERT_TRUE(client->Put(foreign, BlobValue("stray")).ok());
  Status committed = client->Commit();
  EXPECT_EQ(committed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(committed.message().find("outside the session's partition"),
            std::string::npos)
      << committed;
  EXPECT_FALSE(client->in_transaction());

  // The server-side transaction is gone with its lock: another session
  // takes the object for update at once and still reads the old value.
  auto other = NewClient();
  ASSERT_TRUE(other->Begin().ok());
  auto locked = other->GetForUpdate(*id);
  ASSERT_TRUE(locked.ok()) << locked.status();
  EXPECT_EQ(AsBlob(*locked).value, "before");
  ASSERT_TRUE(other->Abort().ok());

  // Mid-transaction, the next call reports the error and the transaction
  // stays open, as after a failed Put that went out on its own.
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(foreign, BlobValue("stray")).ok());
  EXPECT_EQ(client->Get(*id).status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->in_transaction());
  EXPECT_EQ(AsBlob(*client->Get(*id)).value, "before");
  EXPECT_TRUE(client->Commit().ok());
}

TEST_F(ServerTest, AbortBeforeAnyFlushSendsNoFrame) {
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("kept"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());

  auto& metrics = obs::MetricsRegistry::Instance();
  metrics.Reset();
  metrics.Enable();
  const uint64_t requests_before = metrics.GetCounter("server.requests");
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("never sent")).ok());
  EXPECT_TRUE(client->Abort().ok());
  EXPECT_FALSE(client->in_transaction());
  metrics.Disable();
  EXPECT_EQ(metrics.GetCounter("server.requests"), requests_before);
  EXPECT_EQ(HistogramCount("wire.rtt.abort.us"), 0u);

  // The server never opened that transaction, so this begin is not a
  // second one.
  ASSERT_TRUE(client->Begin().ok());
  auto read = client->Get(*id);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(AsBlob(*read).value, "kept");
  EXPECT_TRUE(client->Abort().ok());
}

TEST_F(ServerTest, PutPastThePendingBoundSendsThePendingFrameFirst) {
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto a = client->Insert(BlobValue("a"));
  auto b = client->Insert(BlobValue("b"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(client->Ping().ok());

  auto& metrics = obs::MetricsRegistry::Instance();
  metrics.Reset();
  metrics.Enable();
  const std::string half(TdbClient::kMaxPendingBytes / 2 + 1, 'x');
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(*a, BlobValue(half)).ok());
  // Two halves do not fit in one frame: the begin and the first put go
  // out now, in a frame that ends in a put.
  ASSERT_TRUE(client->Put(*b, BlobValue(half)).ok());
  EXPECT_EQ(HistogramCount("wire.rtt.put.us"), 1u);
  // The server has seen this transaction, so the abort is sent; the second
  // put dies with it unsent.
  EXPECT_TRUE(client->Abort().ok());
  EXPECT_EQ(HistogramCount("wire.rtt.abort.us"), 1u);
  ASSERT_TRUE(client->Ping().ok());
  metrics.Disable();
  EXPECT_EQ(HistogramCount("wire.op.put.us"), 1u);
}

TEST_F(ServerTest, CommitNearThePendingBoundStillEndsTheTransaction) {
  StartServer();
  auto client = NewClient();
  const ObjectId foreign(partition_ + 1, 0, 0);
  // The queued begin and put leave the pending frame just short of the
  // bound, so the commit's own request crosses it. The commit still rides
  // in the same frame: were the queue sent on its own, the failed put would
  // leave the transaction open on the server while the client treats it as
  // over.
  const size_t overhead = registry_.Pickle(BlobValue("")).size();
  const std::string fill(TdbClient::kMaxPendingBytes - 80 - overhead, 'x');
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Put(foreign, BlobValue(fill)).ok());
  EXPECT_EQ(client->Commit().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(client->in_transaction());

  // The server finished that transaction, so the next begin opens one.
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("next"));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(client->Commit().ok());
}

TEST_F(ServerTest, VersionTwoFrameIsRefusedWithUnimplemented) {
  StartServer();
  auto conn = transport_.Connect(server_->address(),
                                 std::chrono::milliseconds(1000));
  ASSERT_TRUE(conn.ok());
  // A v2 ping: magic, version 2, op, partition, object id, empty object.
  const Bytes v2_ping = {kWireMagic, 2, static_cast<uint8_t>(Op::kPing),
                         0,          0, 0};
  EXPECT_EQ(DecodeRequests(v2_ping).status().code(),
            StatusCode::kUnimplemented);
  ASSERT_TRUE((*conn)->Send(v2_ping, std::chrono::milliseconds(1000)).ok());
  auto frame = (*conn)->Recv(std::chrono::milliseconds(2000));
  ASSERT_TRUE(frame.ok());
  auto response = DecodeResponses(*frame);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->size(), 1u);
  Status refused = StatusFromResponse((*response)[0]);
  EXPECT_EQ(refused.code(), StatusCode::kUnimplemented);
  EXPECT_NE(refused.message().find("unsupported wire version 2"),
            std::string::npos)
      << refused;
  // As for any undecodable frame, the server then hangs up.
  EXPECT_EQ((*conn)->Recv(std::chrono::milliseconds(2000)).status().code(),
            StatusCode::kIoError);
}

TEST_F(ServerTest, FrameWithAnAnswerBeforeItsLastRequestIsRefused) {
  ScopedMetrics metrics;
  StartServer();
  auto setup = server_->object_store()->Begin();
  auto id = setup->Insert(std::make_shared<BlobValue>(std::string(1024, 'v')));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(setup->Commit().ok());
  Request get = RequestOf(Op::kGet);
  get.object_id = id->Pack();
  // Only a frame's last request may need an answer. Two stats or two gets
  // would each make the server build a payload per request before it
  // answers; the frame is refused unrun and the server hangs up, as for
  // any undecodable frame.
  const std::vector<std::vector<Request>> frames = {
      {RequestOf(Op::kStats), RequestOf(Op::kStats)},
      {RequestOf(Op::kBegin), get, get},
  };
  for (const std::vector<Request>& requests : frames) {
    const uint64_t requests_before = metrics.Counter("server.requests");
    auto conn = transport_.Connect(server_->address(),
                                   std::chrono::milliseconds(1000));
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)
                    ->Send(EncodeRequests(requests),
                           std::chrono::milliseconds(1000))
                    .ok());
    auto frame = (*conn)->Recv(std::chrono::milliseconds(2000));
    ASSERT_TRUE(frame.ok());
    auto response = DecodeResponses(*frame);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->size(), 1u);
    Status refused = StatusFromResponse((*response)[0]);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.message().find("only a frame's last request"),
              std::string::npos)
        << refused;
    EXPECT_EQ((*conn)->Recv(std::chrono::milliseconds(2000)).status().code(),
              StatusCode::kIoError);
    EXPECT_EQ(metrics.Counter("server.requests"), requests_before);
  }
}

TEST_F(ServerTest, FailedFrameEndingInAbortFinishesTheTransaction) {
  StartServer();
  auto conn = transport_.Connect(server_->address(),
                                 std::chrono::milliseconds(1000));
  ASSERT_TRUE(conn.ok());
  auto round_trip = [&](const std::vector<Request>& requests) {
    EXPECT_TRUE((*conn)
                    ->Send(EncodeRequests(requests),
                           std::chrono::milliseconds(1000))
                    .ok());
    auto frame = (*conn)->Recv(std::chrono::milliseconds(2000));
    EXPECT_TRUE(frame.ok());
    auto responses = DecodeResponses(frame.ok() ? *frame : Bytes{});
    EXPECT_TRUE(responses.ok());
    return responses.ok() ? *responses : std::vector<Response>{};
  };
  Request foreign_put = RequestOf(Op::kPut);
  foreign_put.object_id = ObjectId(partition_ + 1, 0, 0).Pack();
  foreign_put.object = registry_.Pickle(BlobValue("stray"));
  // The put fails, so the abort never runs; the server still finishes the
  // transaction, since the peer that sent an abort treats it as over.
  auto failed = round_trip({RequestOf(Op::kBegin), foreign_put,
                            RequestOf(Op::kAbort)});
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].code, StatusCode::kOk);
  EXPECT_EQ(failed[1].code, StatusCode::kInvalidArgument);
  auto begun = round_trip({RequestOf(Op::kBegin)});
  ASSERT_EQ(begun.size(), 1u);
  EXPECT_EQ(begun[0].code, StatusCode::kOk) << begun[0].message;
  auto aborted = round_trip({RequestOf(Op::kAbort)});
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted[0].code, StatusCode::kOk) << aborted[0].message;
}

TEST_F(ServerTest, SnapshotCarriesOneNamePerServerMetric) {
  obs::MetricsRegistry::Instance().Reset();
  obs::MetricsRegistry::Instance().Enable();
  TdbServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  auto client = NewClient();
  ASSERT_TRUE(client->Ping().ok());
  // An over-limit connection is turned away, which sets the rejected gauge.
  auto turned_away = transport_.Connect(server_->address(),
                                        std::chrono::milliseconds(1000));
  ASSERT_TRUE(turned_away.ok());
  ASSERT_TRUE(
      (*turned_away)->Recv(std::chrono::milliseconds(2000)).ok());
  ASSERT_TRUE(client->Ping().ok());

  auto stats = FetchStatsJson(*client);
  ASSERT_TRUE(stats.ok());
  obs::MetricsRegistry::Instance().Disable();
  for (const char* kept :
       {"server.sessions.active", "server.sessions.opened",
        "server.sessions.rejected", "wire.stage.handle_us"}) {
    EXPECT_NE(stats->find('"' + std::string(kept) + '"'), std::string::npos)
        << kept;
  }
  for (const char* deleted :
       {"server.active_sessions", "server.sessions_opened",
        "server.sessions_rejected", "server.request_us"}) {
    EXPECT_EQ(stats->find('"' + std::string(deleted) + '"'),
              std::string::npos)
        << deleted;
  }
}

// One name, one kind, and the dotted lower-case form, over a server's
// snapshot (obs_test checks the names other workloads publish).
TEST_F(ServerTest, EveryMetricNameHasOneKindAndTheDottedForm) {
  obs::MetricsRegistry::Instance().Reset();
  obs::MetricsRegistry::Instance().Enable();
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("named once"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Get(*id).ok());
  ASSERT_TRUE(client->Commit().ok());
  // Both sides of a hop park (client and server share this registry):
  // `other` waits kAnswerLate for an answer held up by `client`'s lock, and
  // `client`'s session as long for its commit.
  auto other = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->GetForUpdate(*id).ok());
  const uint64_t requests = obs::MetricsRegistry::Instance().GetCounter(
      "server.requests");
  std::thread blocked([&] {
    ASSERT_TRUE(other->Begin().ok());
    EXPECT_TRUE(other->GetForUpdate(*id).ok());
    EXPECT_TRUE(other->Commit().ok());
  });
  const auto deadline = std::chrono::steady_clock::now() + kPeerIo;
  while (obs::MetricsRegistry::Instance().GetCounter("server.requests") <
             requests + 2 &&  // other's begin and get are in
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(kAnswerLate);
  EXPECT_TRUE(client->Commit().ok());
  blocked.join();

  auto snapshot = client->FetchStats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  obs::MetricsRegistry::Instance().Disable();
  ASSERT_FALSE(snapshot->counters.empty());
  ASSERT_FALSE(snapshot->gauges.empty());
  ASSERT_FALSE(snapshot->histograms.empty());
  for (const char* counter :
       {"server.requests", "wire.client.parks", "wire.session.parks"}) {
    EXPECT_EQ(snapshot->counters.count(counter), 1u) << counter;
  }
  ExpectOneKindAndTheDottedForm(*snapshot);
}

// --- Wire op table ---------------------------------------------------------

TEST(WireOpTableTest, UnknownOpBytesFailDecoding) {
  // Bytes just outside the table (0 below kPing, 22 above kHandoffFinish)
  // have no OpInfo entry and must be rejected at decode time, not
  // dispatched.
  EXPECT_EQ(FindOpInfo(static_cast<Op>(0)), nullptr);
  EXPECT_EQ(FindOpInfo(static_cast<Op>(22)), nullptr);
  EXPECT_EQ(FindOpInfo(static_cast<Op>(0xFF)), nullptr);
  for (uint8_t raw : {uint8_t{0}, uint8_t{22}, uint8_t{0xFF}}) {
    Request request;
    request.op = static_cast<Op>(raw);
    auto decoded = DecodeRequests(EncodeRequests({request}));
    ASSERT_FALSE(decoded.ok()) << "op byte " << int{raw};
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireOpTableTest, EveryOpHasConsistentNameAndHistogramNames) {
  for (uint8_t raw = 1; raw <= 21; ++raw) {
    const OpInfo* info = FindOpInfo(static_cast<Op>(raw));
    ASSERT_NE(info, nullptr) << "op byte " << int{raw};
    EXPECT_EQ(static_cast<uint8_t>(info->op), raw);
    ASSERT_NE(info->name, nullptr);
    EXPECT_STRNE(info->name, "");
    // The histogram names derive mechanically from the wire name, so the
    // server and client span metrics can never drift from OpName output.
    EXPECT_EQ(std::string(info->server_histogram),
              "wire.op." + std::string(info->name) + ".us");
    EXPECT_EQ(std::string(info->client_histogram),
              "wire.rtt." + std::string(info->name) + ".us");
    EXPECT_STREQ(OpName(info->op), info->name);
  }
  EXPECT_STREQ(OpName(Op::kStats), "stats");
  EXPECT_STREQ(OpName(Op::kStatsReset), "stats_reset");
  EXPECT_STREQ(OpName(static_cast<Op>(0)), "unknown");
}

TEST(WireOpTableTest, PartitionFieldRoundTripsThroughTheWireFormat) {
  // Every request carries the partition id between the op byte and the
  // object id (since v2).
  Request request;
  request.op = Op::kBegin;
  request.partition = 7;
  auto decoded = DecodeRequests(EncodeRequests({request}));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].op, Op::kBegin);
  EXPECT_EQ((*decoded)[0].partition, 7u);
}

TEST(WireOpTableTest, FramesCarrySeveralRequestsInOrder) {
  // A v3 frame holds a count and then that many requests (or responses).
  std::vector<Request> requests(3);
  requests[0].op = Op::kBegin;
  requests[0].partition = 5;
  requests[1].op = Op::kPut;
  requests[1].object_id = 42;
  requests[1].object = Bytes{1, 2, 3};
  requests[2].op = Op::kCommit;
  auto decoded = DecodeRequests(EncodeRequests(requests));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].op, Op::kBegin);
  EXPECT_EQ((*decoded)[0].partition, 5u);
  EXPECT_EQ((*decoded)[1].op, Op::kPut);
  EXPECT_EQ((*decoded)[1].object_id, 42u);
  EXPECT_EQ((*decoded)[1].object, (Bytes{1, 2, 3}));
  EXPECT_EQ((*decoded)[2].op, Op::kCommit);

  std::vector<Response> responses(2);
  responses[1] = ResponseFromStatus(TimeoutError("lock wait"));
  auto answered = DecodeResponses(EncodeResponses(responses));
  ASSERT_TRUE(answered.ok());
  ASSERT_EQ(answered->size(), 2u);
  EXPECT_EQ((*answered)[0].code, StatusCode::kOk);
  EXPECT_EQ((*answered)[1].code, StatusCode::kTimeout);
  EXPECT_EQ((*answered)[1].message, "lock wait");

  // An empty frame, or a count the frame's bytes cannot hold, is corrupt.
  Bytes empty = EncodeRequests({});
  EXPECT_EQ(DecodeRequests(empty).status().code(), StatusCode::kCorruption);
  Bytes inflated = EncodeRequests(requests);
  inflated[2] = 100;  // the count byte, after magic and version
  EXPECT_EQ(DecodeRequests(inflated).status().code(), StatusCode::kCorruption);
}

TEST(WireOpTableTest, OnlyAFramesLastRequestMayNeedAnAnswer) {
  // Begins and puts may come before a frame's last request; that one may
  // be anything.
  Request put = RequestOf(Op::kPut);
  put.object_id = 9;
  put.object = Bytes{1};
  for (Op last : {Op::kCommit, Op::kGet, Op::kStats, Op::kAbort}) {
    EXPECT_TRUE(DecodeRequests(EncodeRequests({RequestOf(Op::kBegin), put,
                                               put, RequestOf(last)}))
                    .ok())
        << OpName(last);
  }
  EXPECT_TRUE(DecodeRequests(EncodeRequests({RequestOf(Op::kBeginReadOnly),
                                             RequestOf(Op::kGet)}))
                  .ok());
  // Any other op before the last is refused.
  for (Op early : {Op::kGet, Op::kGetForUpdate, Op::kInsert, Op::kDelete,
                   Op::kCommit, Op::kAbort, Op::kPing, Op::kStats,
                   Op::kPartitionList, Op::kHandoffExport}) {
    auto decoded = DecodeRequests(
        EncodeRequests({RequestOf(Op::kBegin), RequestOf(early),
                        RequestOf(Op::kCommit)}));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << OpName(early);
  }

  // A frame carries at most kMaxFrameRequests requests, whatever its size.
  std::vector<Request> puts(kMaxFrameRequests, put);
  EXPECT_TRUE(DecodeRequests(EncodeRequests(puts)).ok());
  puts.push_back(put);
  EXPECT_EQ(DecodeRequests(EncodeRequests(puts)).status().code(),
            StatusCode::kCorruption);
  std::vector<Response> answers(kMaxFrameRequests + 1);
  EXPECT_EQ(DecodeResponses(EncodeResponses(answers)).status().code(),
            StatusCode::kCorruption);
}

TEST(WireOpTableTest, OldWireVersionFramesAreRejectedNotMisparsed) {
  // A v1 peer's frames differ in layout (no partition field), and a v4
  // peer's kStats payload carries a profiler flag and a module list, so
  // both must be refused outright — kUnimplemented with a version message,
  // never a garbled decode. Patch the version byte (offset 1, after the
  // magic) on an otherwise-valid frame to fake an old peer.
  for (uint8_t old_version : {1, 4}) {
    Request request;
    request.op = Op::kBegin;
    Bytes frame = EncodeRequests({request});
    ASSERT_GE(frame.size(), 2u);
    EXPECT_EQ(frame[1], kWireVersion);
    frame[1] = old_version;
    auto decoded = DecodeRequests(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
    EXPECT_NE(decoded.status().message().find("unsupported wire version"),
              std::string::npos);

    Bytes reply = EncodeResponses({ResponseFromStatus(OkStatus())});
    reply[1] = old_version;
    auto response = DecodeResponses(reply);
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnimplemented);
  }
}

TEST(WireOpTableTest, MovedStatusCodeSurvivesTheWire) {
  // kMoved is the redirect status; it must round-trip so clients can learn
  // the new address, and codes beyond it must still be rejected.
  Response moved = ResponseFromStatus(MovedError("127.0.0.1:7777"));
  auto decoded = DecodeResponses(EncodeResponses({moved}));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].code, StatusCode::kMoved);
  EXPECT_EQ((*decoded)[0].message, "127.0.0.1:7777");

  // The status byte follows magic, version and the response count.
  Bytes frame = EncodeResponses({moved});
  frame[3] = static_cast<uint8_t>(StatusCode::kMoved) + 1;
  auto bad = DecodeResponses(frame);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(WireOpTableTest, StatsOpsRoundTripThroughTheWireFormat) {
  for (Op op : {Op::kStats, Op::kStatsReset}) {
    Request request;
    request.op = op;
    auto decoded = DecodeRequests(EncodeRequests({request}));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ((*decoded)[0].op, op);
    EXPECT_EQ((*decoded)[0].object_id, 0u);
    EXPECT_TRUE((*decoded)[0].object.empty());
  }
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Two name -> double maps, the doubles compared bit for bit.
void ExpectSameDoubles(const std::map<std::string, double>& got,
                       const std::map<std::string, double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (auto g = got.begin(), w = want.begin(); w != want.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(Bits(g->second), Bits(w->second)) << w->first;
  }
}

// The kStats payload carries a snapshot exactly: every field, the doubles
// bit for bit, and so the same JSON byte for byte.
TEST_F(ServerTest, StatsSnapshotPicklesExactly) {
  obs::ResetAll();
  obs::EnableAll();
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("pickled"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("pickled twice")).ok());
  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(client->Begin().ok());
  ASSERT_TRUE(client->Get(*id).ok());
  ASSERT_TRUE(client->Commit().ok());
  ASSERT_TRUE(client->FetchStats().ok());  // publishes the server gauges
  const std::string detail = "quote \" backslash \\ newline \n done";
  obs::TraceEmit(obs::TraceKind::kTamperDetected, "tamper", 1, 2, detail);
  obs::StatsSnapshot want = obs::TakeSnapshot();
  obs::DisableAll();
  obs::ResetAll();

  // Every section is filled, module self time included.
  ASSERT_FALSE(Profiler::Modules(want.histograms).empty());
  ASSERT_FALSE(want.counters.empty());
  ASSERT_FALSE(want.gauges.empty());
  ASSERT_FALSE(want.histograms.empty());
  ASSERT_FALSE(want.derived.empty());
  ASSERT_FALSE(want.trace_events.empty());
  EXPECT_EQ(want.trace_events.back().detail, detail);

  auto got = UnpickleSnapshot(PickleSnapshot(want));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->metrics_enabled, want.metrics_enabled);
  EXPECT_EQ(got->trace_enabled, want.trace_enabled);
  EXPECT_EQ(got->counters, want.counters);
  ExpectSameDoubles(got->gauges, want.gauges);
  ASSERT_EQ(got->histograms.size(), want.histograms.size());
  for (size_t i = 0; i < want.histograms.size(); ++i) {
    const auto& g = got->histograms[i];
    const auto& w = want.histograms[i];
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(Bits(g.sum), Bits(w.sum)) << w.name;
    EXPECT_EQ(Bits(g.min), Bits(w.min)) << w.name;
    EXPECT_EQ(Bits(g.max), Bits(w.max)) << w.name;
    EXPECT_EQ(g.buckets, w.buckets) << w.name;
    EXPECT_EQ(Bits(g.Quantile(0.99)), Bits(w.Quantile(0.99))) << w.name;
  }
  ExpectSameDoubles(got->derived, want.derived);
  EXPECT_EQ(got->trace_capacity, want.trace_capacity);
  EXPECT_EQ(got->trace_total_emitted, want.trace_total_emitted);
  EXPECT_EQ(got->trace_counts, want.trace_counts);
  ASSERT_EQ(got->trace_events.size(), want.trace_events.size());
  for (size_t i = 0; i < want.trace_events.size(); ++i) {
    const auto& g = got->trace_events[i];
    const auto& w = want.trace_events[i];
    EXPECT_EQ(g.seq, w.seq);
    EXPECT_EQ(g.t_us, w.t_us);
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.module, w.module);
    EXPECT_EQ(g.a, w.a);
    EXPECT_EQ(g.b, w.b);
    EXPECT_EQ(g.detail, w.detail);
  }
  EXPECT_EQ(obs::ToJson(*got), obs::ToJson(want));
}

// --- Remote stats ops and request spans ------------------------------------

TEST_F(ServerTest, StatsOpReturnsSnapshotOutsideTransaction) {
  obs::MetricsRegistry::Instance().Reset();
  obs::MetricsRegistry::Instance().Enable();
  StartServer();
  auto client = NewClient();

  // kStats needs no open transaction: a monitoring client connects and asks.
  auto idle = FetchStatsJson(*client);
  ASSERT_TRUE(idle.ok());
  EXPECT_NE(idle->find("\"histograms\""), std::string::npos);

  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("observed"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Put(*id, BlobValue("observed twice")).ok());
  ASSERT_TRUE(client->Commit().ok());

  auto stats = FetchStatsJson(*client);
  ASSERT_TRUE(stats.ok());
  // Per-op server spans recorded for the traffic above, with percentile
  // fields, plus the server gauges published at snapshot time.
  EXPECT_NE(stats->find("wire.op.put.us"), std::string::npos);
  EXPECT_NE(stats->find("wire.op.commit.us"), std::string::npos);
  EXPECT_NE(stats->find("wire.stage.handle_us"), std::string::npos);
  EXPECT_NE(stats->find("\"p999\""), std::string::npos);
  EXPECT_NE(stats->find("server.sessions.active"), std::string::npos);
  EXPECT_NE(stats->find("server.requests"), std::string::npos);
  // Client-side RTT spans land in the same process-wide registry here
  // (loopback), so they ride along in the snapshot too. There is one per
  // frame, named after the frame's last op: the queued put rode with the
  // commit.
  EXPECT_NE(stats->find("wire.rtt.commit.us"), std::string::npos);
  EXPECT_EQ(stats->find("wire.rtt.put.us"), std::string::npos);

  // A stats fetch must not disturb the session: the transaction protocol
  // still works afterwards.
  ASSERT_TRUE(client->Begin().ok());
  EXPECT_EQ(AsBlob(*client->Get(*id)).value, "observed twice");
  EXPECT_TRUE(client->Abort().ok());
  obs::MetricsRegistry::Instance().Disable();
}

TEST_F(ServerTest, StatsResetClearsServerMetrics) {
  obs::MetricsRegistry::Instance().Reset();
  obs::MetricsRegistry::Instance().Enable();
  StartServer();
  auto client = NewClient();

  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("soon forgotten"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());

  auto before = FetchStatsJson(*client);
  ASSERT_TRUE(before.ok());
  ASSERT_NE(before->find("wire.op.insert.us"), std::string::npos);
  ASSERT_NE(before->find("wire.op.commit.us"), std::string::npos);

  ASSERT_TRUE(client->ResetStats().ok());

  // The reset wiped everything recorded before it; the only spans that can
  // reappear are for the stats_reset/stats traffic itself (each op is
  // observed after its response is sent, so a snapshot never includes its
  // own request).
  auto after = FetchStatsJson(*client);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->find("wire.op.insert.us"), std::string::npos);
  EXPECT_EQ(after->find("wire.op.commit.us"), std::string::npos);
  obs::MetricsRegistry::Instance().Disable();
}

TEST_F(ServerTest, SlowRequestsEmitTraceEvents) {
  auto& journal = obs::TraceJournal::Instance();
  journal.Reset();
  journal.Enable();
  // Every request is "slow" against a 1 us threshold; the commit certainly
  // is (the store models 200 us of flush latency).
  StartServer({.slow_request_threshold = std::chrono::microseconds(1)});
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("sluggish"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());
  // The span (and its slow-request event) is emitted after the response is
  // sent, so the client can observe its own commit before the server logs
  // it. The session loop is sequential: one more round trip guarantees the
  // commit's iteration — including the emit — has finished.
  ASSERT_TRUE(client->Ping().ok());

  EXPECT_GT(journal.CountOf(obs::TraceKind::kSlowRequest), 0u);
  bool saw_commit_event = false;
  for (const auto& event : journal.Snapshot()) {
    if (event.kind != obs::TraceKind::kSlowRequest) {
      continue;
    }
    EXPECT_STREQ(event.module, "server");
    EXPECT_GT(event.b, 0u);  // duration in microseconds
    // The detail carries the op and the stage breakdown.
    EXPECT_NE(event.detail.find("op="), std::string::npos);
    EXPECT_NE(event.detail.find("handle_us="), std::string::npos);
    EXPECT_NE(event.detail.find("send_us="), std::string::npos);
    if (event.detail.find("op=commit") != std::string::npos) {
      saw_commit_event = true;
    }
  }
  EXPECT_TRUE(saw_commit_event);
  journal.Disable();
  journal.Reset();
}

TEST_F(ServerTest, DefaultThresholdDoesNotFlagLoopbackTraffic) {
  auto& journal = obs::TraceJournal::Instance();
  journal.Reset();
  journal.Enable();
  // The default threshold is 100 ms; nothing on an in-memory rig with a
  // 200 us flush comes near it, so a quiet journal is the expected steady
  // state in production.
  StartServer();
  auto client = NewClient();
  ASSERT_TRUE(client->Begin().ok());
  auto id = client->Insert(BlobValue("quick"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client->Commit().ok());
  EXPECT_EQ(journal.CountOf(obs::TraceKind::kSlowRequest), 0u);
  journal.Disable();
  journal.Reset();
}

TEST_F(ServerTest, StatsRoundTripOverTcp) {
  obs::MetricsRegistry::Instance().Reset();
  obs::MetricsRegistry::Instance().Enable();
  net::TcpTransport tcp;
  TdbServer server(chunks_.get(), partition_, &registry_, {});
  Status started = server.Start(&tcp, "127.0.0.1:0");
  if (!started.ok()) {
    obs::MetricsRegistry::Instance().Disable();
    GTEST_SKIP() << "TCP unavailable in this environment: " << started;
  }
  TdbClient client(&registry_);
  ASSERT_TRUE(client.Connect(&tcp, server.address()).ok());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Begin().ok());
  auto id = client.Insert(BlobValue("stats over real sockets"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.Commit().ok());

  // The exact path a remote `tdb_stats --connect` takes.
  auto stats = FetchStatsJson(client);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"histograms\""), std::string::npos);
  EXPECT_NE(stats->find("wire.op.ping.us"), std::string::npos);
  EXPECT_NE(stats->find("wire.op.commit.us"), std::string::npos);
  EXPECT_NE(stats->find("server.sessions.active"), std::string::npos);
  EXPECT_TRUE(client.ResetStats().ok());
  auto after = FetchStatsJson(client);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->find("wire.op.ping.us"), std::string::npos);

  client.Disconnect();
  server.Stop();
  obs::MetricsRegistry::Instance().Disable();
}

// The client's wait for an answer, against a peer the test plays by hand on
// each transport, so the test decides when, and whether, the answer comes.

Bytes OkAnswer() { return EncodeResponses({ResponseFromStatus(OkStatus())}); }

class AnswerWaitTest : public ::testing::TestWithParam<bool> {
 protected:
  bool tcp() const { return GetParam(); }

  void SetUp() override {
    if (tcp()) {
      transport_ = std::make_unique<net::TcpTransport>();
    } else {
      transport_ = std::make_unique<net::LoopbackTransport>();
    }
    auto listener = transport_->Listen(tcp() ? "127.0.0.1:0" : "peer");
    if (!listener.ok()) {
      GTEST_SKIP() << "cannot listen: " << listener.status();
    }
    listener_ = std::move(*listener);
  }

  // Connects `client` and returns the peer's end of its connection.
  std::unique_ptr<net::Connection> Connect(TdbClient& client) {
    EXPECT_TRUE(client.Connect(transport_.get(), listener_->address()).ok());
    auto peer = listener_->Accept(kPeerIo);
    EXPECT_TRUE(peer.ok()) << peer.status();
    return peer.ok() ? std::move(*peer) : nullptr;
  }

  TypeRegistry registry_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::Listener> listener_;
};

INSTANTIATE_TEST_SUITE_P(Transports, AnswerWaitTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Tcp" : "Loopback";
                         });

TEST_P(AnswerWaitTest, AnswerAfterThePollBudgetWakesTheParkedClient) {
  ScopedMetrics metrics;
  TdbClient client(&registry_);
  std::unique_ptr<net::Connection> peer = Connect(client);
  ASSERT_NE(peer, nullptr);
  std::thread server([&] {
    ASSERT_TRUE(peer->Recv(kPeerIo).ok());
    std::this_thread::sleep_for(kAnswerLate);
    EXPECT_TRUE(peer->Send(OkAnswer(), kPeerIo).ok());
  });
  const auto start = std::chrono::steady_clock::now();
  Status pinged = client.Ping();
  const auto waited = std::chrono::steady_clock::now() - start;
  server.join();
  EXPECT_TRUE(pinged.ok()) << pinged;
  EXPECT_GE(waited, kAnswerLate);
  EXPECT_EQ(metrics.Counter("wire.client.parks"), 1u);
}

TEST_P(AnswerWaitTest, PeerThatClosesWhileTheClientWaitsIsAnIoErrorAtOnce) {
  TdbClientOptions options;
  options.request_timeout = std::chrono::milliseconds(30000);
  TdbClient client(&registry_, options);
  std::unique_ptr<net::Connection> peer = Connect(client);
  ASSERT_NE(peer, nullptr);
  std::thread server([&] {
    ASSERT_TRUE(peer->Recv(kPeerIo).ok());
    peer->Close();
  });
  const auto start = std::chrono::steady_clock::now();
  Status pinged = client.Ping();
  const auto waited = std::chrono::steady_clock::now() - start;
  server.join();
  EXPECT_EQ(pinged.code(), StatusCode::kIoError) << pinged;
  EXPECT_LT(waited, kPeerIo) << "the close waited for the request timeout";
}

TEST_P(AnswerWaitTest, AnswerThatNeverComesStillTimesOut) {
  constexpr auto kRequestTimeout = std::chrono::milliseconds(200);
  TdbClientOptions options;
  options.request_timeout = kRequestTimeout;
  TdbClient client(&registry_, options);
  std::unique_ptr<net::Connection> peer = Connect(client);
  ASSERT_NE(peer, nullptr);
  // The peer takes the frame, then neither answers nor closes.
  std::thread server([&] { EXPECT_TRUE(peer->Recv(kPeerIo).ok()); });
  const auto start = std::chrono::steady_clock::now();
  Status pinged = client.Ping();
  const auto waited = std::chrono::steady_clock::now() - start;
  server.join();
  EXPECT_EQ(pinged.code(), StatusCode::kTimeout) << pinged;
  EXPECT_GE(waited, kRequestTimeout);
}

// The wait's rule (frame_wait.h), against a connection that counts the
// Readable() calls a wait makes: a poll calls it at least once, a wait that
// parks at once never does. Recv always hands over a frame at once.
class CountingConnection : public net::Connection {
 public:
  Status Send(ByteView, std::chrono::milliseconds) override {
    return OkStatus();
  }
  Result<Bytes> Recv(std::chrono::milliseconds) override { return OkAnswer(); }
  bool Readable() const override {
    ++readable_calls;
    return readable;
  }
  void Close() override {}
  std::string peer() const override { return "counting"; }

  bool readable = false;  // false: every poll runs out its budget
  mutable int readable_calls = 0;
};

// Runs one wait on `conn`; true when it polled.
bool Polled(FrameWait& wait, CountingConnection& conn) {
  const int before = conn.readable_calls;
  EXPECT_TRUE(wait.Next(conn, kPeerIo).ok());
  return conn.readable_calls > before;
}

// Misses back off to one poll every kBackOffPeriod waits, on either side.
TEST(FrameWaitTest, MissedPollsBackOffToEveryEighthWait) {
  for (const char* side : {"client", "session"}) {
    SCOPED_TRACE(side);
    ScopedMetrics metrics;
    FrameWait wait = side[0] == 'c' ? FrameWait::ForClient()
                                    : FrameWait::ForSession(/*cpus=*/4);
    CountingConnection conn;
    for (int i = 0; i < FrameWait::kMissesToBackOff; ++i) {
      EXPECT_TRUE(Polled(wait, conn)) << "miss " << i;
    }
    for (int round = 0; round < 2; ++round) {
      for (int i = 1; i < FrameWait::kBackOffPeriod; ++i) {
        EXPECT_FALSE(Polled(wait, conn)) << "round " << round << ", wait " << i;
      }
      EXPECT_TRUE(Polled(wait, conn)) << "round " << round;
    }
    // Every wait ended in Recv without finding the frame first.
    EXPECT_EQ(metrics.Counter(std::string("wire.") + side + ".parks"),
              static_cast<uint64_t>(FrameWait::kMissesToBackOff +
                                    2 * FrameWait::kBackOffPeriod));
  }
}

TEST(FrameWaitTest, PollThatFindsTheFrameBringsPollingBack) {
  ScopedMetrics metrics;
  FrameWait wait = FrameWait::ForSession(/*cpus=*/2);
  CountingConnection conn;
  for (int i = 0; i < FrameWait::kMissesToBackOff; ++i) {
    EXPECT_TRUE(Polled(wait, conn));
  }
  for (int i = 1; i < FrameWait::kBackOffPeriod; ++i) {
    EXPECT_FALSE(Polled(wait, conn));
  }
  conn.readable = true;
  EXPECT_TRUE(Polled(wait, conn));  // the backed-off poll finds the frame
  for (int i = 0; i < FrameWait::kBackOffPeriod; ++i) {
    EXPECT_TRUE(Polled(wait, conn)) << "wait " << i << " after the find";
  }
  // The polls that found the frame were not parks.
  EXPECT_EQ(metrics.Counter("wire.session.parks"),
            static_cast<uint64_t>(FrameWait::kMissesToBackOff +
                                  FrameWait::kBackOffPeriod - 1));
}

TEST(FrameWaitTest, SessionOnOneCpuParksAtOnceAndTheClientStillPolls) {
  ScopedMetrics metrics;
  CountingConnection conn;
  conn.readable = true;
  FrameWait session = FrameWait::ForSession(/*cpus=*/1);
  for (int i = 0; i < 3 * FrameWait::kBackOffPeriod; ++i) {
    ASSERT_TRUE(session.Next(conn, kPeerIo).ok());
  }
  EXPECT_EQ(conn.readable_calls, 0);
  EXPECT_EQ(metrics.Counter("wire.session.parks"),
            static_cast<uint64_t>(3 * FrameWait::kBackOffPeriod));
  FrameWait client = FrameWait::ForClient();
  EXPECT_TRUE(Polled(client, conn));
  EXPECT_EQ(metrics.Counter("wire.client.parks"), 0u);
}

// The session's side of the hop: a real server, and a client the test
// plays by hand on each transport, so the test decides when, and whether,
// the next frame comes.
class SessionWaitTest : public ServerTest,
                        public ::testing::WithParamInterface<bool> {
 protected:
  net::Transport& transport() {
    if (GetParam()) {
      return tcp_;
    }
    return transport_;
  }

  // Starts the server; false (and the test skipped) where TCP is missing.
  bool Start(TdbServerOptions options = {}) {
    server_ = std::make_unique<TdbServer>(chunks_.get(), partition_,
                                          &registry_, options);
    Status started =
        server_->Start(&transport(), GetParam() ? "127.0.0.1:0" : "tdb");
    if (!started.ok()) {
      server_.reset();
      return false;
    }
    return true;
  }

  // The server goes before the TCP transport it listens on.
  void TearDown() override { server_.reset(); }

  std::unique_ptr<net::Connection> Connect() {
    auto conn = transport().Connect(server_->address(), kPeerIo);
    EXPECT_TRUE(conn.ok()) << conn.status();
    return conn.ok() ? std::move(*conn) : nullptr;
  }

  net::TcpTransport tcp_;
};

INSTANTIATE_TEST_SUITE_P(Transports, SessionWaitTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Tcp" : "Loopback";
                         });

// One ping frame by hand: sends it and reads the session's answer.
Status PingByHand(net::Connection& conn) {
  TDB_RETURN_IF_ERROR(
      conn.Send(EncodeRequests({Request{.op = Op::kPing}}), kPeerIo));
  TDB_ASSIGN_OR_RETURN(Bytes frame, conn.Recv(kPeerIo));
  TDB_ASSIGN_OR_RETURN(std::vector<Response> answers, DecodeResponses(frame));
  return answers.size() == 1 ? StatusFromResponse(answers[0])
                             : CorruptionError("not one answer");
}

TEST_P(SessionWaitTest, FrameLongAfterTheLastAnswerIsServed) {
  ScopedMetrics metrics;
  if (!Start()) {
    GTEST_SKIP() << "TCP unavailable in this environment";
  }
  std::unique_ptr<net::Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(PingByHand(*conn).ok());
  std::this_thread::sleep_for(kAnswerLate);  // far past the session's poll
  Status pinged = PingByHand(*conn);
  EXPECT_TRUE(pinged.ok()) << pinged;
  EXPECT_GE(metrics.Counter("wire.session.parks"), 1u);
}

TEST_P(SessionWaitTest, ClientThatClosesWhileItsSessionPollsEndsItAtOnce) {
  ScopedMetrics metrics;
  TdbServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(60000);
  if (!Start(options)) {
    GTEST_SKIP() << "TCP unavailable in this environment";
  }
  std::unique_ptr<net::Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(PingByHand(*conn).ok());
  conn->Close();  // the session is waiting for the next frame
  const auto start = std::chrono::steady_clock::now();
  while (metrics.Counter("server.sessions_closed") == 0 &&
         std::chrono::steady_clock::now() - start < kPeerIo) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(metrics.Counter("server.sessions_closed"), 1u)
      << "the session outlived its client's close";
}

TEST_P(SessionWaitTest, StopWithPollingSessionsReturnsPromptly) {
  if (!Start()) {
    GTEST_SKIP() << "TCP unavailable in this environment";
  }
  // Clients that ping back to back keep their sessions polling between
  // frames until Stop closes the connections under them.
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<net::Connection>> conns;
  for (int i = 0; i < kClients; ++i) {
    conns.push_back(Connect());
    ASSERT_NE(conns.back(), nullptr);
  }
  std::atomic<int> pings{0};
  std::vector<std::thread> clients;
  for (auto& conn : conns) {
    clients.emplace_back([&conn, &pings] {
      while (PingByHand(*conn).ok()) {
        pings.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + kPeerIo;
  while (pings.load(std::memory_order_relaxed) < 100 * kClients &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  server_->Stop();
  const auto stopped = std::chrono::steady_clock::now() - start;
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_LT(stopped, kPeerIo) << "Stop waited for its sessions' timeouts";
}

bool RecvAll(int fd, uint8_t* data, size_t n) {
  for (size_t off = 0; off < n;) {
    ssize_t r = ::recv(fd, data + off, n - off, 0);
    if (r <= 0) {
      return false;
    }
    off += static_cast<size_t>(r);
  }
  return true;
}

// Over TCP an answer's length can arrive before its body. Here a raw socket
// sends the length before the client even asks, so the client's poll ends
// at once; the client must still wait for the body, which comes well after
// the poll budget.
TEST(AnswerWaitTcpTest, BodyThatFollowsItsLengthLateIsReassembled) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd, 1) != 0 ||
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    ::close(listen_fd);
    GTEST_SKIP() << "TCP unavailable in this environment";
  }
  TypeRegistry registry;
  net::TcpTransport tcp;
  TdbClient client(&registry);
  ASSERT_TRUE(client
                  .Connect(&tcp, "127.0.0.1:" +
                                     std::to_string(ntohs(addr.sin_port)))
                  .ok());
  int fd = ::accept(listen_fd, nullptr, nullptr);
  ::close(listen_fd);
  ASSERT_GE(fd, 0);
  timeval io_timeout{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout, sizeof(io_timeout));

  const Bytes answer = OkAnswer();
  const uint8_t answer_length[4] = {static_cast<uint8_t>(answer.size() >> 24),
                                    static_cast<uint8_t>(answer.size() >> 16),
                                    static_cast<uint8_t>(answer.size() >> 8),
                                    static_cast<uint8_t>(answer.size())};
  ASSERT_EQ(::send(fd, answer_length, 4, MSG_NOSIGNAL), 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // delivered
  std::thread server([fd, &answer] {
    uint8_t length[4];
    ASSERT_TRUE(RecvAll(fd, length, sizeof(length)));
    std::vector<uint8_t> request(static_cast<size_t>(length[0]) << 24 |
                                 static_cast<size_t>(length[1]) << 16 |
                                 static_cast<size_t>(length[2]) << 8 |
                                 length[3]);
    ASSERT_TRUE(RecvAll(fd, request.data(), request.size()));
    std::this_thread::sleep_for(kAnswerLate);
    ASSERT_EQ(::send(fd, answer.data(), answer.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(answer.size()));
  });
  Status pinged = client.Ping();
  server.join();
  client.Disconnect();
  ::close(fd);
  EXPECT_TRUE(pinged.ok()) << pinged;
}

// TcpConnection::Send writes the length and the body with one sendmsg. A
// frame far larger than the socket buffers leaves in many partial sends,
// and an empty frame as its four length bytes alone; both arrive whole.
TEST(TcpFrameTest, PartialSendsAndEmptyFramesArriveWhole) {
  net::TcpTransport tcp;
  auto listener = tcp.Listen("127.0.0.1:0");
  if (!listener.ok()) {
    GTEST_SKIP() << "TCP unavailable in this environment: "
                 << listener.status();
  }
  auto sending = tcp.Connect((*listener)->address(), kPeerIo);
  ASSERT_TRUE(sending.ok()) << sending.status();
  auto receiving = (*listener)->Accept(kPeerIo);
  ASSERT_TRUE(receiving.ok()) << receiving.status();
  Bytes big(8 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 131 + (i >> 16));
  }
  std::thread sender([&] {
    EXPECT_TRUE((*sending)->Send(big, kPeerIo).ok());
    EXPECT_TRUE((*sending)->Send(Bytes{}, kPeerIo).ok());
  });
  Result<Bytes> got = (*receiving)->Recv(kPeerIo);
  Result<Bytes> empty = (*receiving)->Recv(kPeerIo);
  sender.join();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(*got == big) << "the large frame arrived changed";
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace tdb::server
