// Stats accuracy (the numbers behind Figure 12 and the cleaning overhead u
// must be trustworthy): the registry's chunk byte counters reconcile against
// the actual bytes the untrusted store received, across commit, checkpoint,
// and cleaning; cache hit/miss counters sum to the number of accesses in
// eviction-heavy workloads.

#include <gtest/gtest.h>

#include <numeric>

#include "src/chunk/chunk_store.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/paging/trusted_pager.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"
#include "src/xdb/pager.h"

namespace tdb {
namespace {

struct Rig {
  MemUntrustedStore store{{.segment_size = 32 * 1024, .num_segments = 256}};
  MemSecretStore secret{Bytes(32, 0xA5)};
  MemTamperResistantRegister reg;
  MemMonotonicCounter counter;
  std::unique_ptr<ChunkStore> chunks;
  PartitionId pid;

  explicit Rig(uint32_t delta_ut = 5) {
    ChunkStoreOptions options;
    options.validation.mode = ValidationMode::kCounter;
    options.validation.delta_ut = delta_ut;
    auto cs = ChunkStore::Create(
        &store, TrustedServices{&secret, &reg, &counter}, options);
    EXPECT_TRUE(cs.ok()) << cs.status();
    chunks = std::move(*cs);
    pid = *chunks->AllocatePartition();
    ChunkStore::Batch batch;
    batch.WritePartition(
        pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256,
                          Bytes(16, 0x21)});
    EXPECT_TRUE(chunks->Commit(std::move(batch)).ok());
  }
};

class StatsAccuracyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetAll();
    obs::EnableAll();
  }
  void TearDown() override {
    obs::DisableAll();
    obs::ResetAll();
  }
};

// Every byte the untrusted store's segments receive flows through the log
// (the superblock has its own write path and its own counter), so
// chunk.log_bytes_appended must equal the store's own byte count exactly —
// after plain commits, after a checkpoint, and after cleaning rewrites live
// data.
TEST_F(StatsAccuracyTest, LogBytesReconcileAgainstUntrustedStore) {
  auto counter = [](const char* name) {
    return obs::MetricsRegistry::Instance().GetCounter(name);
  };
  Rig rig;
  Rng rng(3);
  std::vector<ChunkId> ids;
  uint64_t payload_bytes = 0;
  for (int round = 0; round < 3; ++round) {
    ChunkStore::Batch batch;
    for (int i = 0; i < 64; ++i) {
      ChunkId id = round == 0 ? *rig.chunks->AllocateChunk(rig.pid)
                              : ids[static_cast<size_t>(i) * 3 % ids.size()];
      if (round == 0) {
        ids.push_back(id);
      }
      Bytes payload = rng.NextBytes(300);
      payload_bytes += payload.size();
      batch.WriteChunk(id, std::move(payload));
    }
    ASSERT_TRUE(rig.chunks->Commit(std::move(batch)).ok());
  }

  ChunkStore::Stats stats = rig.chunks->GetStats();
  EXPECT_EQ(counter("chunk.log_bytes_appended"), rig.store.bytes_written());
  // Committed plaintext: every data payload, no more than the log grew by
  // (the log adds headers, hashes, and cipher padding on top).
  EXPECT_GE(counter("chunk.bytes_committed"), payload_bytes);
  EXPECT_LT(counter("chunk.bytes_committed"),
            counter("chunk.log_bytes_appended"));
  // Nothing reclaimed yet: the log never shrinks without cleaning.
  EXPECT_LE(stats.live_log_bytes, stats.used_log_bytes);
  EXPECT_LE(stats.used_log_bytes, counter("chunk.log_bytes_appended"));

  ASSERT_TRUE(rig.chunks->Checkpoint().ok());
  EXPECT_EQ(counter("chunk.log_bytes_appended"), rig.store.bytes_written());

  // Churn the same chunks so early segments go mostly dead, then clean.
  for (int round = 0; round < 6; ++round) {
    ChunkStore::Batch batch;
    for (size_t i = 0; i < ids.size(); ++i) {
      batch.WriteChunk(ids[i], rng.NextBytes(300));
    }
    ASSERT_TRUE(rig.chunks->Commit(std::move(batch)).ok());
  }
  ASSERT_TRUE(rig.chunks->Checkpoint().ok());
  auto cleaned = rig.chunks->Clean(/*max_segments=*/8);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status();
  EXPECT_GT(*cleaned, 0u);

  stats = rig.chunks->GetStats();
  // The cleaner's rewrites are log appends too, so the identity still holds.
  EXPECT_EQ(counter("chunk.log_bytes_appended"), rig.store.bytes_written());
  // Cleaning freed segments: the used log is now strictly smaller than
  // everything ever appended.
  EXPECT_LT(stats.used_log_bytes, counter("chunk.log_bytes_appended"));
  EXPECT_LE(stats.live_log_bytes, stats.used_log_bytes);
  // The cleaning overhead numerator is exactly what the cleaner rewrote.
  EXPECT_GT(counter("cleaner.bytes_rewritten"), 0u);
}

// The XDB page cache: every Read is exactly one hit or one miss, even when
// the working set is much larger than the cache and eviction runs
// constantly.
TEST_F(StatsAccuracyTest, PagerHitsPlusMissesEqualsReads) {
  MemPageFile file(512);
  ASSERT_TRUE(file.Extend(64).ok());
  Pager pager(&file, /*cache_pages=*/4);

  uint64_t hits_before =
      obs::MetricsRegistry::Instance().GetCounter("xdb.page_cache_hits");
  uint64_t misses_before =
      obs::MetricsRegistry::Instance().GetCounter("xdb.page_cache_misses");

  // Eviction-heavy: stride across 64 pages with a 4-page cache, with enough
  // locality that both hits and misses occur.
  uint64_t reads = 0;
  for (int pass = 0; pass < 8; ++pass) {
    for (uint32_t page = 0; page < 64; ++page) {
      ASSERT_TRUE(pager.Read(page).ok());
      ++reads;
      if (page % 4 == 0) {
        ASSERT_TRUE(pager.Read(page).ok());  // immediate re-read: a hit
        ++reads;
      }
    }
  }

  uint64_t hits =
      obs::MetricsRegistry::Instance().GetCounter("xdb.page_cache_hits") -
      hits_before;
  uint64_t misses =
      obs::MetricsRegistry::Instance().GetCounter("xdb.page_cache_misses") -
      misses_before;
  EXPECT_EQ(hits + misses, reads);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

// The trusted pager: every byte-addressed access within one page is exactly
// one touch, and each touch is a resident hit, a fault from the chunk
// store, or a zero-fill of a never-written page.
TEST_F(StatsAccuracyTest, TrustedPagerTouchesAreFullyAccounted) {
  Rig rig;
  auto pager = TrustedPager::Create(
      rig.chunks.get(),
      CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 3)},
      TrustedPagerOptions{.page_size = 1024, .resident_pages = 4});
  ASSERT_TRUE(pager.ok()) << pager.status();

  auto counter = [](const char* name) {
    return obs::MetricsRegistry::Instance().GetCounter(name);
  };
  uint64_t before = counter("paging.page_hits") + counter("paging.faults") +
                    counter("paging.zero_fills");

  Rng rng(5);
  uint64_t touches = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t page = 0; page < 16; ++page) {
      ASSERT_TRUE((*pager)->Write(page * 1024, rng.NextBytes(128)).ok());
      ++touches;
      ASSERT_TRUE((*pager)->Read(page * 1024, 128).ok());
      ++touches;
    }
  }

  uint64_t after = counter("paging.page_hits") + counter("paging.faults") +
                   counter("paging.zero_fills");
  EXPECT_EQ(after - before, touches);
  // The workload pages out and faults back in: all three classes occur.
  EXPECT_GT(counter("paging.faults"), 0u);
  EXPECT_GT(counter("paging.page_hits"), 0u);
  EXPECT_GT(counter("paging.zero_fills"), 0u);
}

}  // namespace
}  // namespace tdb
