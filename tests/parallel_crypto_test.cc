// Coverage for the parallel crypto pipeline (ChunkStoreOptions::
// crypto_threads): the untrusted-store and archive images must be
// byte-identical at any thread count (the fan-out reserves IV sequence
// numbers serially in batch order), stores written either way must reopen
// cleanly under both validation modes, and failures inside the fanned-out
// cleaner (I/O faults, tampered chunks) must surface as one clean Status.
// The images are also pinned to golden digests, so a crypto kernel that
// changed a single ciphertext or hash byte fails here.

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

struct StoreImage {
  Bytes superblock;
  std::vector<Bytes> segments;
  Bytes archive;
};

// Runs a commit + checkpoint + clean + backup workload at the given thread
// count, verifies the store reopens cleanly afterwards, and returns the
// resulting durable images.
StoreImage RunWorkload(ValidationMode mode, size_t crypto_threads) {
  MemUntrustedStore store({.segment_size = 8192, .num_segments = 256});
  MemSecretStore secret(Bytes(32, 0xA5));
  MemTamperResistantRegister reg;
  MemMonotonicCounter counter;
  TrustedServices trusted{&secret, &reg, &counter};
  ChunkStoreOptions options;
  options.validation.mode = mode;
  options.crypto_threads = crypto_threads;

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

  // One large multi-chunk commit per partition (CommitLocked fan-out).
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
  EXPECT_TRUE(chunks->Checkpoint().ok());  // MaterializeTree fan-out

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
  auto cleaned = chunks->Clean(6);  // cleaner revalidation fan-out
  EXPECT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_GT(*cleaned, 0u);

  // Backup both partitions in one set (backup writer fan-out).
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

  StoreImage image;
  image.superblock = store.DumpSuperblock();
  image.segments.reserve(store.num_segments());
  for (uint32_t s = 0; s < store.num_segments(); ++s) {
    image.segments.push_back(store.DumpSegment(s));
  }
  image.archive = DrainArchiveStream(archive, "set");
  return image;
}

// SHA-256 over the superblock, every segment in order, then the archive.
std::string ImageDigest(const StoreImage& image) {
  Sha256 h;
  h.Update(image.superblock);
  for (const Bytes& segment : image.segments) {
    h.Update(segment);
  }
  h.Update(image.archive);
  return HexEncode(h.Finish());
}

// Digests of the images RunWorkload writes. They must not move unless the
// on-store format changes on purpose.
constexpr const char* kCounterModeImageDigest =
    "5cdd292807347167f71b385642cf1f79d209a3cd5ac9e8cdc3d4bed77a2cc8f0";
constexpr const char* kDirectHashModeImageDigest =
    "11d115d902035f9735848e185e3d9e38f50f5384c90f78396dfb2d9825e69395";

void ExpectIdenticalImages(const StoreImage& serial,
                           const StoreImage& parallel) {
  EXPECT_EQ(serial.superblock, parallel.superblock);
  ASSERT_EQ(serial.segments.size(), parallel.segments.size());
  size_t mismatched = 0;
  for (size_t s = 0; s < serial.segments.size(); ++s) {
    if (serial.segments[s] != parallel.segments[s]) {
      ++mismatched;
      ADD_FAILURE() << "segment " << s << " differs between serial and "
                    << "parallel runs";
    }
  }
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(serial.archive.size(), parallel.archive.size());
  EXPECT_TRUE(serial.archive == parallel.archive)
      << "archive bytes differ between serial and parallel runs";
}

TEST(ParallelCryptoDeterminism, CounterModeImagesAreByteIdentical) {
  StoreImage serial = RunWorkload(ValidationMode::kCounter, 0);
  StoreImage parallel = RunWorkload(ValidationMode::kCounter, 8);
  ExpectIdenticalImages(serial, parallel);
  EXPECT_EQ(ImageDigest(serial), kCounterModeImageDigest);
}

TEST(ParallelCryptoDeterminism, DirectHashModeImagesAreByteIdentical) {
  StoreImage serial = RunWorkload(ValidationMode::kDirectHash, 0);
  StoreImage parallel = RunWorkload(ValidationMode::kDirectHash, 8);
  ExpectIdenticalImages(serial, parallel);
  EXPECT_EQ(ImageDigest(serial), kDirectHashModeImageDigest);
}

// A backup written with the parallel pipeline must restore onto a store
// running serially (and vice versa): the Hp(chunk)-based signature is a
// property of the stream, not of the writer's thread count.
TEST(ParallelCryptoBackup, ParallelBackupRestoresOntoSerialStore) {
  MemUntrustedStore store({.segment_size = 8192, .num_segments = 256});
  MemSecretStore secret(Bytes(32, 0xA5));
  MemMonotonicCounter counter;
  TrustedServices trusted{&secret, nullptr, &counter};
  ChunkStoreOptions options;
  options.validation.mode = ValidationMode::kCounter;
  options.crypto_threads = 8;
  auto cs = ChunkStore::Create(&store, trusted, options);
  ASSERT_TRUE(cs.ok());
  auto p = (*cs)->AllocatePartition();
  ASSERT_TRUE(p.ok());
  {
    ChunkStore::Batch batch;
    batch.WritePartition(*p, DesSha1Params());
    ASSERT_TRUE((*cs)->Commit(std::move(batch)).ok());
  }
  std::vector<ChunkId> ids;
  {
    ChunkStore::Batch batch;
    for (size_t i = 0; i < 20; ++i) {
      auto id = (*cs)->AllocateChunk(*p);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      batch.WriteChunk(*id, PatternChunk(i, 700 + 33 * i));
    }
    ASSERT_TRUE((*cs)->Commit(std::move(batch)).ok());
  }
  MemArchive archive;
  BackupStore backup(cs->get());
  auto sink = archive.OpenSink("b");
  ASSERT_TRUE(
      backup.CreateBackupSet({{*p, 0}}, 1, 99, sink.get()).ok());
  ASSERT_TRUE(sink->Close().ok());

  // Fresh, strictly serial store.
  MemUntrustedStore store2({.segment_size = 8192, .num_segments = 256});
  MemSecretStore secret2(Bytes(32, 0xA5));
  MemMonotonicCounter counter2;
  TrustedServices trusted2{&secret2, nullptr, &counter2};
  ChunkStoreOptions options2;
  options2.validation.mode = ValidationMode::kCounter;
  options2.crypto_threads = 0;
  auto cs2 = ChunkStore::Create(&store2, trusted2, options2);
  ASSERT_TRUE(cs2.ok());
  BackupStore restore(cs2->get());
  auto source = archive.OpenSource("b");
  ASSERT_TRUE(source.ok());
  auto result = restore.RestoreStream(source->get(), nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t i = 0; i < ids.size(); ++i) {
    auto r = (*cs2)->Read(ChunkId(*p, ids[i].position));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, PatternChunk(i, 700 + 33 * i));
  }
}

class ParallelCleanerFailureTest : public ::testing::Test {
 protected:
  ParallelCleanerFailureTest()
      : base_({.segment_size = 8192, .num_segments = 256}),
        store_(&base_),
        secret_(Bytes(32, 0xA5)) {
    options_.validation.mode = ValidationMode::kCounter;
    options_.crypto_threads = 8;
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

TEST_F(ParallelCleanerFailureTest, ReadFaultSurfacesOneCleanStatus) {
  PrepareCleanableState();
  store_.FailAfterReads(1);
  auto cleaned = chunks_->Clean(6);
  ASSERT_FALSE(cleaned.ok());
  EXPECT_EQ(cleaned.status().code(), StatusCode::kIoError)
      << cleaned.status().ToString();
  // The fault fired before any log mutation: clearing it must leave the
  // store fully usable, and the pool drained (a wedged pool would hang the
  // next Clean).
  store_.ClearFault();
  auto retry = chunks_->Clean(6);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(ParallelCleanerFailureTest, TamperDetectedDuringParallelRevalidation) {
  ChunkId survivor = PrepareCleanableState();
  auto loc = chunks_->DebugChunkLocation(survivor);
  ASSERT_TRUE(loc.ok());
  // Flip a bit in the surviving version's body ciphertext; the cleaner's
  // fanned-out revalidation must refuse to launder it. Clean everything so
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
