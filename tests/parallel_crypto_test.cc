// Pins the bytes the chunk store and the backup writer produce: a commit,
// checkpoint, clean and backup workload must leave untrusted-store and
// archive images that match golden digests under both validation modes, and
// the store must reopen cleanly afterwards. A crypto kernel, an IV order or
// a record layout that changed a single byte fails here. Failures inside
// the cleaner's revalidation (I/O faults, tampered chunks) must surface as
// one clean Status.

#include <gtest/gtest.h>

#include "src/backup/backup_store.h"
#include "src/chunk/chunk_store.h"
#include "src/crypto/sha256.h"
#include "src/platform/trusted_store.h"
#include "src/store/archival_store.h"
#include "src/store/faulty_store.h"
#include "src/store/untrusted_store.h"

namespace tdb {
namespace {

CryptoParams DesSha1Params() {
  return CryptoParams{CipherAlg::kDes, HashAlg::kSha1, Bytes(8, 0x5C)};
}

CryptoParams AesSha256Params() {
  return CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 0x33)};
}

Bytes PatternChunk(size_t tag, size_t size) {
  Bytes b(size);
  for (size_t j = 0; j < size; ++j) {
    b[j] = static_cast<uint8_t>(tag * 31 + j * 7);
  }
  return b;
}

Bytes DrainArchiveStream(MemArchive& archive, const std::string& name) {
  auto source = archive.OpenSource(name);
  EXPECT_TRUE(source.ok());
  Bytes all;
  while (true) {
    auto piece = (*source)->Read(64 * 1024);
    EXPECT_TRUE(piece.ok());
    if (piece->empty()) {
      break;
    }
    Append(all, *piece);
  }
  return all;
}

// Runs a commit + checkpoint + clean + backup workload, verifies the store
// reopens cleanly afterwards, and returns the SHA-256 of the resulting
// durable images: the superblock, every segment in order, then the archive.
std::string RunWorkload(ValidationMode mode) {
  MemUntrustedStore store({.segment_size = 8192, .num_segments = 256});
  MemSecretStore secret(Bytes(32, 0xA5));
  MemTamperResistantRegister reg;
  MemMonotonicCounter counter;
  TrustedServices trusted{&secret, &reg, &counter};
  ChunkStoreOptions options;
  options.validation.mode = mode;

  auto created = ChunkStore::Create(&store, trusted, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ChunkStore> chunks = std::move(*created);

  auto p1 = chunks->AllocatePartition();
  auto p2 = chunks->AllocatePartition();
  EXPECT_TRUE(p1.ok() && p2.ok());
  {
    ChunkStore::Batch batch;
    batch.WritePartition(*p1, DesSha1Params());
    batch.WritePartition(*p2, AesSha256Params());
    EXPECT_TRUE(chunks->Commit(std::move(batch)).ok());
  }

  // One large multi-chunk commit across both partitions.
  std::vector<ChunkId> ids1, ids2;
  {
    ChunkStore::Batch batch;
    for (size_t i = 0; i < 24; ++i) {
      auto id = chunks->AllocateChunk(*p1);
      EXPECT_TRUE(id.ok());
      ids1.push_back(*id);
      batch.WriteChunk(*id, PatternChunk(i, 1024 + 64 * i));
    }
    for (size_t i = 0; i < 16; ++i) {
      auto id = chunks->AllocateChunk(*p2);
      EXPECT_TRUE(id.ok());
      ids2.push_back(*id);
      batch.WriteChunk(*id, PatternChunk(100 + i, 512 + 128 * i));
    }
    EXPECT_TRUE(chunks->Commit(std::move(batch)).ok());
  }
  EXPECT_TRUE(chunks->Checkpoint().ok());

  // Obsolete most of the first segments so the cleaner has work.
  {
    ChunkStore::Batch batch;
    for (size_t i = 0; i < 20; ++i) {
      batch.WriteChunk(ids1[i], PatternChunk(200 + i, 2048));
    }
    for (size_t i = 0; i < 12; ++i) {
      batch.WriteChunk(ids2[i], PatternChunk(300 + i, 1536));
    }
    EXPECT_TRUE(chunks->Commit(std::move(batch)).ok());
  }
  {
    ChunkStore::Batch batch;
    batch.DeallocateChunk(ids2[13]);
    batch.DeallocateChunk(ids2[14]);
    EXPECT_TRUE(chunks->Commit(std::move(batch)).ok());
  }
  EXPECT_TRUE(chunks->Checkpoint().ok());
  auto cleaned = chunks->Clean(6);
  EXPECT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_GT(*cleaned, 0u);

  // Backup both partitions in one set.
  MemArchive archive;
  BackupStore backup(chunks.get());
  auto sink = archive.OpenSink("set");
  auto backed = backup.CreateBackupSet({{*p1, 0}, {*p2, 0}}, /*set_id=*/7,
                                       /*created_unix=*/1234, sink.get());
  EXPECT_TRUE(backed.ok()) << backed.status().ToString();
  EXPECT_TRUE(sink->Close().ok());

  // The store must reopen cleanly and serve back the expected data.
  chunks.reset();
  auto reopened = ChunkStore::Open(&store, trusted, options);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  if (reopened.ok()) {
    auto r = (*reopened)->Read(ids1[5]);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, PatternChunk(205, 2048));
    }
    auto kept = (*reopened)->Read(ids1[23]);
    EXPECT_TRUE(kept.ok());
    if (kept.ok()) {
      EXPECT_EQ(*kept, PatternChunk(23, 1024 + 64 * 23));
    }
    EXPECT_FALSE((*reopened)->ChunkWritten(ids2[13]));
  }

  Sha256 h;
  h.Update(store.DumpSuperblock());
  for (uint32_t s = 0; s < store.num_segments(); ++s) {
    h.Update(store.DumpSegment(s));
  }
  h.Update(DrainArchiveStream(archive, "set"));
  return HexEncode(h.Finish());
}

// Digests of the images RunWorkload writes. They must not move unless the
// on-store format changes on purpose.
constexpr const char* kCounterModeImageDigest =
    "5cdd292807347167f71b385642cf1f79d209a3cd5ac9e8cdc3d4bed77a2cc8f0";
constexpr const char* kDirectHashModeImageDigest =
    "11d115d902035f9735848e185e3d9e38f50f5384c90f78396dfb2d9825e69395";

TEST(ImageDigestTest, CounterModeImageMatchesTheGoldenDigest) {
  EXPECT_EQ(RunWorkload(ValidationMode::kCounter), kCounterModeImageDigest);
}

TEST(ImageDigestTest, DirectHashModeImageMatchesTheGoldenDigest) {
  EXPECT_EQ(RunWorkload(ValidationMode::kDirectHash),
            kDirectHashModeImageDigest);
}

class CleanerFailureTest : public ::testing::Test {
 protected:
  CleanerFailureTest()
      : base_({.segment_size = 8192, .num_segments = 256}),
        store_(&base_),
        secret_(Bytes(32, 0xA5)) {
    options_.validation.mode = ValidationMode::kCounter;
    auto cs = ChunkStore::Create(&store_, {&secret_, nullptr, &counter_},
                                 options_);
    EXPECT_TRUE(cs.ok());
    chunks_ = std::move(*cs);
  }

  // Fills a partition, then obsoletes most of it so Clean has candidate
  // segments with a few surviving versions. Returns the surviving chunk.
  ChunkId PrepareCleanableState() {
    auto p = chunks_->AllocatePartition();
    EXPECT_TRUE(p.ok());
    ChunkStore::Batch pb;
    pb.WritePartition(*p, AesSha256Params());
    EXPECT_TRUE(chunks_->Commit(std::move(pb)).ok());
    std::vector<ChunkId> ids;
    ChunkStore::Batch wb;
    for (size_t i = 0; i < 30; ++i) {
      auto id = chunks_->AllocateChunk(*p);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
      wb.WriteChunk(*id, PatternChunk(i, 1500));
    }
    EXPECT_TRUE(chunks_->Commit(std::move(wb)).ok());
    EXPECT_TRUE(chunks_->Checkpoint().ok());
    ChunkStore::Batch ob;
    for (size_t i = 1; i < 30; ++i) {
      ob.WriteChunk(ids[i], PatternChunk(500 + i, 1500));
    }
    EXPECT_TRUE(chunks_->Commit(std::move(ob)).ok());
    EXPECT_TRUE(chunks_->Checkpoint().ok());
    return ids[0];
  }

  MemUntrustedStore base_;
  FaultyStore store_;
  MemSecretStore secret_;
  MemMonotonicCounter counter_;
  ChunkStoreOptions options_;
  std::unique_ptr<ChunkStore> chunks_;
};

TEST_F(CleanerFailureTest, ReadFaultSurfacesOneCleanStatus) {
  PrepareCleanableState();
  store_.FailAfterReads(1);
  auto cleaned = chunks_->Clean(6);
  ASSERT_FALSE(cleaned.ok());
  EXPECT_EQ(cleaned.status().code(), StatusCode::kIoError)
      << cleaned.status().ToString();
  // The fault fired before any log mutation: clearing it must leave the
  // store fully usable.
  store_.ClearFault();
  auto retry = chunks_->Clean(6);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(CleanerFailureTest, TamperDetectedDuringRevalidation) {
  ChunkId survivor = PrepareCleanableState();
  auto loc = chunks_->DebugChunkLocation(survivor);
  ASSERT_TRUE(loc.ok());
  // Flip a bit in the surviving version's body ciphertext; the cleaner's
  // revalidation must refuse to launder it. Clean everything so
  // the survivor's segment is certainly among the cleaned set.
  base_.CorruptByte(loc->first.segment, loc->first.offset + loc->second - 1,
                    0x80);
  auto cleaned = chunks_->Clean(1000);
  ASSERT_FALSE(cleaned.ok());
  EXPECT_EQ(cleaned.status().code(), StatusCode::kTamperDetected)
      << cleaned.status().ToString();
}

}  // namespace
}  // namespace tdb
