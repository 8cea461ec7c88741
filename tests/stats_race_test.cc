// The TSan audit for satellite concurrency (carries the `tsan` label):
// committing threads count into the metrics registry while a reader polls
// ChunkStore::GetStats and the registry's counters and another merges
// snapshots. Under TSAN this test fails on any racy counter; under a normal
// build it checks that concurrent reads never go backwards and that the
// final counts are exact.

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

  // Committers drive the commit path and its counters.
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

  // A stats reader hammering GetStats and the counters: a counter must
  // never go backwards (a torn or racy read would).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  std::thread stats_reader([&] {
    uint64_t last_commits = 0;
    uint64_t last_appended = 0;
    while (!done.load(std::memory_order_acquire)) {
      ChunkStore::Stats s = chunks.GetStats();
      EXPECT_LE(s.live_log_bytes, s.used_log_bytes);
      const uint64_t committed = registry.GetCounter("chunk.bytes_committed");
      const uint64_t commits = registry.GetCounter("chunk.commits");
      const uint64_t appended =
          registry.GetCounter("chunk.log_bytes_appended");
      EXPECT_GE(commits, last_commits);
      EXPECT_GE(appended, last_appended);
      EXPECT_GE(appended, committed);
      last_commits = commits;
      last_appended = appended;
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
  constexpr uint64_t kExpectedCommits = 1 + kCommitters * kCommitsPerThread;
  EXPECT_EQ(registry.GetCounter("chunk.commits"), kExpectedCommits);
  EXPECT_EQ(registry.GetCounter("chunk.chunks_written"),
            static_cast<uint64_t>(kCommitters) * kCommitsPerThread *
                kChunksPerCommit);
  EXPECT_EQ(registry.GetCounter("chunk.log_bytes_appended"),
            store.bytes_written());

  obs::DisableAll();
  obs::ResetAll();
}

}  // namespace
}  // namespace tdb
