// The TSan audit for satellite concurrency (carries the `tsan` label):
// ChunkStore's monotonic stat cells are atomics and GetStats reads them
// without taking the store mutex, so stats readers, metrics snapshots, and
// committing threads may all run concurrently. Under TSAN this test fails
// on any racy counter; under a normal build it checks that concurrent reads
// never tear or go backwards and that the final counts are exact.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/chunk/chunk_store.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"

namespace tdb {
namespace {

TEST(StatsRaceTest, ConcurrentCommitsStatsAndSnapshots) {
  obs::ResetAll();
  obs::EnableAll();

  MemUntrustedStore store({.segment_size = 64 * 1024, .num_segments = 1024});
  MemSecretStore secret(Bytes(32, 0xA5));
  MemTamperResistantRegister reg;
  MemMonotonicCounter counter;
  ChunkStoreOptions options;
  options.validation.mode = ValidationMode::kCounter;
  options.validation.delta_ut = 5;
  auto cs = ChunkStore::Create(
      &store, TrustedServices{&secret, &reg, &counter}, options);
  ASSERT_TRUE(cs.ok()) << cs.status();
  ChunkStore& chunks = **cs;
  auto pid = chunks.AllocatePartition();
  ASSERT_TRUE(pid.ok());
  {
    ChunkStore::Batch batch;
    batch.WritePartition(
        *pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256,
                           Bytes(16, 0x21)});
    ASSERT_TRUE(chunks.Commit(std::move(batch)).ok());
  }

  constexpr int kCommitters = 3;
  constexpr int kCommitsPerThread = 24;
  constexpr int kChunksPerCommit = 8;
  std::atomic<bool> done{false};

  // Committers drive the commit path and the stat cells.
  std::vector<std::thread> committers;
  for (int t = 0; t < kCommitters; ++t) {
    committers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kCommitsPerThread; ++i) {
        ChunkStore::Batch batch;
        for (int c = 0; c < kChunksPerCommit; ++c) {
          auto id = chunks.AllocateChunk(*pid);
          ASSERT_TRUE(id.ok());
          batch.WriteChunk(*id, rng.NextBytes(600));
        }
        ASSERT_TRUE(chunks.Commit(std::move(batch)).ok());
      }
    });
  }

  // A stats reader hammering GetStats: monotonic counters must never go
  // backwards (a torn or racy read would).
  std::thread stats_reader([&] {
    uint64_t last_commits = 0;
    uint64_t last_appended = 0;
    while (!done.load(std::memory_order_acquire)) {
      ChunkStore::Stats s = chunks.GetStats();
      EXPECT_GE(s.commits, last_commits);
      EXPECT_GE(s.log_bytes_appended, last_appended);
      EXPECT_GE(s.log_bytes_appended, s.bytes_committed);
      last_commits = s.commits;
      last_appended = s.log_bytes_appended;
    }
  });

  // A snapshot reader merging the per-thread metric blocks concurrently.
  std::thread snapshot_reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::string json = obs::SnapshotJson(/*max_trace_events=*/8);
      EXPECT_FALSE(json.empty());
    }
  });

  for (std::thread& t : committers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  stats_reader.join();
  snapshot_reader.join();

  // Exactness: nothing was lost to races.
  ChunkStore::Stats s = chunks.GetStats();
  constexpr uint64_t kExpectedCommits = 1 + kCommitters * kCommitsPerThread;
  EXPECT_EQ(s.commits, kExpectedCommits);
  EXPECT_EQ(s.chunks_written,
            static_cast<uint64_t>(kCommitters) * kCommitsPerThread *
                kChunksPerCommit);
  EXPECT_EQ(obs::MetricsRegistry::Instance().GetCounter("chunk.commits"),
            kExpectedCommits);
  EXPECT_EQ(s.log_bytes_appended, store.bytes_written());

  obs::DisableAll();
  obs::ResetAll();
}

}  // namespace
}  // namespace tdb
