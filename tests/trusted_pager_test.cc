// Tests for trusted paging (§10): eviction and fault-in round trips, zero
// fill, cross-page access, write-back batching, and tamper detection on
// paged-out state.

#include <gtest/gtest.h>

#include "src/paging/trusted_pager.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"
#include "tests/metrics_test_util.h"

namespace tdb {
namespace {

class TrustedPagerTest : public ::testing::Test {
 protected:
  TrustedPagerTest()
      : store_({.segment_size = 32 * 1024, .num_segments = 512}),
        secret_(Bytes(32, 0xA5)) {
    options_.validation.mode = ValidationMode::kCounter;
    auto cs = ChunkStore::Create(
        &store_, TrustedServices{&secret_, nullptr, &counter_}, options_);
    EXPECT_TRUE(cs.ok());
    chunks_ = std::move(*cs);
  }

  std::unique_ptr<TrustedPager> MakePager(size_t resident_pages,
                                          size_t page_size = 256) {
    auto pager = TrustedPager::Create(
        chunks_.get(),
        CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 4)},
        TrustedPagerOptions{.page_size = page_size,
                            .resident_pages = resident_pages,
                            .writeback_batch = 2});
    EXPECT_TRUE(pager.ok());
    return std::move(*pager);
  }

  MemUntrustedStore store_;
  MemSecretStore secret_;
  MemMonotonicCounter counter_;
  ChunkStoreOptions options_;
  std::unique_ptr<ChunkStore> chunks_;
};

TEST_F(TrustedPagerTest, ReadOfUntouchedMemoryIsZero) {
  auto pager = MakePager(4);
  auto data = pager->Read(1000, 64);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes(64, 0));
}

TEST_F(TrustedPagerTest, WriteReadRoundTripWithinPage) {
  auto pager = MakePager(4);
  ASSERT_TRUE(pager->Write(100, BytesFromString("hello paging")).ok());
  EXPECT_EQ(*pager->Read(100, 12), BytesFromString("hello paging"));
  // Neighbouring bytes still zero.
  EXPECT_EQ(*pager->Read(112, 4), Bytes(4, 0));
}

TEST_F(TrustedPagerTest, CrossPageAccess) {
  auto pager = MakePager(4, /*page_size=*/128);
  Bytes data(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  ASSERT_TRUE(pager->Write(100, data).ok());  // spans 3+ pages
  EXPECT_EQ(*pager->Read(100, 300), data);
}

TEST_F(TrustedPagerTest, EvictionAndFaultInPreserveContents) {
  ScopedMetrics metrics;
  auto pager = MakePager(/*resident_pages=*/3, /*page_size=*/128);
  // Touch many more pages than fit in trusted memory.
  for (uint64_t page = 0; page < 20; ++page) {
    Bytes data(128, static_cast<uint8_t>(page + 1));
    ASSERT_TRUE(pager->Write(page * 128, data).ok());
  }
  EXPECT_LE(pager->resident_count(), 3u);
  EXPECT_GT(metrics.Counter("paging.evictions"), 0u);
  EXPECT_GT(metrics.Counter("paging.writebacks"), 0u);
  // Everything reads back (faulting pages in from the chunk store).
  for (uint64_t page = 0; page < 20; ++page) {
    auto data = pager->Read(page * 128, 128);
    ASSERT_TRUE(data.ok()) << "page " << page;
    EXPECT_EQ(*data, Bytes(128, static_cast<uint8_t>(page + 1)));
  }
  EXPECT_GT(metrics.Counter("paging.faults"), 0u);
}

TEST_F(TrustedPagerTest, CleanPagesEvictWithoutWriteback) {
  ScopedMetrics metrics;
  auto pager = MakePager(/*resident_pages=*/2, /*page_size=*/128);
  ASSERT_TRUE(pager->Write(0, Bytes(128, 1)).ok());
  ASSERT_TRUE(pager->FlushAll().ok());
  const uint64_t writebacks_after_flush = metrics.Counter("paging.writebacks");
  ASSERT_GT(writebacks_after_flush, 0u);
  // Re-read the page repeatedly while touching others: the page is clean,
  // so its evictions must not add writebacks.
  for (uint64_t page = 1; page < 10; ++page) {
    ASSERT_TRUE(pager->Read(page * 128, 1).ok());
    ASSERT_TRUE(pager->Read(0, 1).ok());
  }
  EXPECT_EQ(metrics.Counter("paging.writebacks"), writebacks_after_flush);
}

TEST_F(TrustedPagerTest, TamperWithPagedOutPageDetected) {
  auto pager = MakePager(/*resident_pages=*/2, /*page_size=*/128);
  ASSERT_TRUE(pager->Write(0, Bytes(128, 0x55)).ok());
  ASSERT_TRUE(pager->FlushAll().ok());
  // Force page 0 out of trusted memory.
  for (uint64_t page = 1; page < 8; ++page) {
    ASSERT_TRUE(pager->Write(page * 128, Bytes(128, 1)).ok());
  }
  // Attack the paged-out page in the untrusted store.
  ChunkId page0(pager->partition(), 0, 0);
  auto loc = chunks_->DebugChunkLocation(page0);
  ASSERT_TRUE(loc.ok());
  store_.CorruptByte(loc->first.segment, loc->first.offset + loc->second / 2,
                     0x80);
  auto read = pager->Read(0, 128);
  EXPECT_EQ(read.status().code(), StatusCode::kTamperDetected);
}

TEST_F(TrustedPagerTest, PagedStateSurvivesRestart) {
  PartitionId partition;
  {
    auto pager = MakePager(2, 128);
    partition = pager->partition();
    ASSERT_TRUE(pager->Write(0, BytesFromString("persist me")).ok());
    ASSERT_TRUE(pager->FlushAll().ok());
  }
  chunks_.reset();
  auto reopened = ChunkStore::Open(
      &store_, TrustedServices{&secret_, nullptr, &counter_}, options_);
  ASSERT_TRUE(reopened.ok());
  auto data = (*reopened)->Read(ChunkId(partition, 0, 0));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(StringFromBytes(*data).substr(0, 10), "persist me");
}

}  // namespace
}  // namespace tdb
