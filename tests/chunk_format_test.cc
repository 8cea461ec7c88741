// Unit tests for the chunk store's building blocks: ids, descriptors, map
// chunks, partition leaders, the log format (version headers and unnamed
// chunk records), the descriptor cache, and the validators.

#include <gtest/gtest.h>

#include "src/chunk/chunk_map.h"
#include "src/chunk/descriptor.h"
#include "src/chunk/log_format.h"
#include "src/chunk/log_manager.h"
#include "src/chunk/validator.h"
#include "src/platform/trusted_store.h"

namespace tdb {
namespace {

CryptoSuite SystemSuite() {
  return *CryptoSuite::Create(
      CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 0xAA)});
}

TEST(ChunkIdTest, PackUnpackRoundTrip) {
  ChunkId id(0x1234, 7, 0x123456789AULL);
  ChunkId back = ChunkId::Unpack(id.Pack());
  EXPECT_EQ(back, id);
  EXPECT_EQ(back.partition, 0x1234);
  EXPECT_EQ(back.position.height, 7);
  EXPECT_EQ(back.position.rank, 0x123456789AULL);
}

TEST(ChunkIdTest, ParentAndSlot) {
  ChunkPosition pos(0, 130);
  EXPECT_EQ(pos.Parent(), ChunkPosition(1, 2));
  EXPECT_EQ(pos.SlotInParent(), 2u);
  ChunkPosition root_child(2, 63);
  EXPECT_EQ(root_child.Parent(), ChunkPosition(3, 0));
}

TEST(ChunkIdTest, ToStringFormat) {
  EXPECT_EQ(ChunkId(3, 1, 42).ToString(), "3:1.42");
  EXPECT_EQ(Location({5, 100}).ToString(), "5+100");
}

TEST(LocationTest, PackUnpack) {
  Location loc{0xDEAD, 0xBEEF};
  EXPECT_EQ(Location::Unpack(loc.Pack()), loc);
}

TEST(DescriptorTest, PickleRoundTripWritten) {
  Descriptor d;
  d.status = ChunkStatus::kWritten;
  d.location = {3, 777};
  d.stored_size = 1234;
  d.hash = Bytes(32, 0xCD);
  PickleWriter w;
  d.Pickle(w);
  PickleReader r(w.data());
  auto back = Descriptor::Unpickle(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, d);
}

TEST(DescriptorTest, PickleRoundTripFree) {
  Descriptor d;
  d.status = ChunkStatus::kFree;
  PickleWriter w;
  d.Pickle(w);
  PickleReader r(w.data());
  auto back = Descriptor::Unpickle(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status, ChunkStatus::kFree);
}

TEST(MapChunkTest, RoundTripWithMixedSlots) {
  MapChunk map;
  map.slots[0].status = ChunkStatus::kWritten;
  map.slots[0].location = {1, 2};
  map.slots[0].stored_size = 3;
  map.slots[0].hash = Bytes(20, 7);
  map.slots[5].status = ChunkStatus::kFree;
  Bytes pickled = map.Pickle();
  auto back = MapChunk::Unpickle(pickled);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->slots[0], map.slots[0]);
  EXPECT_EQ(back->slots[5].status, ChunkStatus::kFree);
  EXPECT_EQ(back->slots[63].status, ChunkStatus::kUnallocated);
}

TEST(MapChunkTest, RejectsTruncated) {
  MapChunk map;
  Bytes pickled = map.Pickle();
  pickled.resize(pickled.size() / 2);
  EXPECT_FALSE(MapChunk::Unpickle(pickled).ok());
}

TEST(PartitionLeaderTest, RoundTrip) {
  PartitionLeader leader;
  leader.params = CryptoParams{CipherAlg::kDes, HashAlg::kSha1, Bytes(8, 1)};
  leader.tree_height = 2;
  leader.root.status = ChunkStatus::kWritten;
  leader.root.location = {9, 9};
  leader.root.stored_size = 99;
  leader.root.hash = Bytes(20, 9);
  leader.num_positions = 1000;
  leader.free_ranks = {5, 17, 255};
  leader.copies = {7, 8};
  leader.copied_from = 3;
  auto back = PartitionLeader::UnpickleFromBytes(leader.PickleToBytes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tree_height, 2);
  EXPECT_EQ(back->root, leader.root);
  EXPECT_EQ(back->num_positions, 1000u);
  EXPECT_EQ(back->free_ranks, leader.free_ranks);
  EXPECT_EQ(back->copies, leader.copies);
  EXPECT_EQ(back->copied_from, 3);
}

TEST(PartitionLeaderTest, HeightFor) {
  EXPECT_EQ(PartitionLeader::HeightFor(0), 0);
  EXPECT_EQ(PartitionLeader::HeightFor(1), 1);
  EXPECT_EQ(PartitionLeader::HeightFor(64), 1);
  EXPECT_EQ(PartitionLeader::HeightFor(65), 2);
  EXPECT_EQ(PartitionLeader::HeightFor(64 * 64), 2);
  EXPECT_EQ(PartitionLeader::HeightFor(64 * 64 + 1), 3);
}

TEST(LogFormatTest, NamedHeaderRoundTrip) {
  CryptoSuite suite = SystemSuite();
  VersionHeader header = VersionHeader::Named(ChunkId(9, 2, 500), 4321);
  Bytes ct = EncodeHeader(suite, header);
  EXPECT_EQ(ct.size(), HeaderCipherSize(suite));
  auto back = DecodeHeader(suite, ct);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->unnamed);
  EXPECT_EQ(back->id, ChunkId(9, 2, 500));
  EXPECT_EQ(back->body_size, 4321u);
}

TEST(LogFormatTest, UnnamedHeaderRoundTrip) {
  CryptoSuite suite = SystemSuite();
  for (UnnamedType type : {UnnamedType::kDeallocate, UnnamedType::kCommit,
                           UnnamedType::kNextSegment, UnnamedType::kCleaner}) {
    Bytes ct = EncodeHeader(suite, VersionHeader::Unnamed(type, 7));
    auto back = DecodeHeader(suite, ct);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->unnamed);
    EXPECT_EQ(back->type, type);
    EXPECT_EQ(back->body_size, 7u);
  }
}

TEST(LogFormatTest, GarbledHeaderRejected) {
  CryptoSuite suite = SystemSuite();
  Bytes ct = EncodeHeader(suite, VersionHeader::Named(ChunkId(1, 0, 1), 10));
  ct.back() ^= 0xFF;  // garble the last ciphertext block entirely
  auto back = DecodeHeader(suite, ct);
  // Either decryption padding fails or the decoded type/height is invalid —
  // in any case, not silently accepted as the original.
  if (back.ok()) {
    EXPECT_FALSE(!back->unnamed && back->id == ChunkId(1, 0, 1) &&
                 back->body_size == 10);
  }
}

TEST(LogFormatTest, CommitRecordSignatureBindsFields) {
  CryptoSuite suite = SystemSuite();
  CommitRecord record;
  record.count = 42;
  record.set_digest = Bytes(32, 0x11);
  record.Sign(suite);
  EXPECT_TRUE(record.VerifySignature(suite));
  CommitRecord forged = record;
  forged.count = 43;
  EXPECT_FALSE(forged.VerifySignature(suite));
  CommitRecord forged2 = record;
  forged2.set_digest[0] ^= 1;
  EXPECT_FALSE(forged2.VerifySignature(suite));
  // Round trip preserves the signature.
  auto back = CommitRecord::Unpickle(record.Pickle());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->VerifySignature(suite));
}

TEST(LogFormatTest, DeallocateRecordRoundTrip) {
  DeallocateRecord record;
  record.chunks = {ChunkId(1, 0, 5), ChunkId(2, 0, 9)};
  record.partitions = {4, 5};
  auto back = DeallocateRecord::Unpickle(record.Pickle());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->chunks, record.chunks);
  EXPECT_EQ(back->partitions, record.partitions);
}

TEST(LogFormatTest, CleanerRecordRoundTrip) {
  CleanerRecord record;
  CleanerEntry entry;
  entry.original_id = ChunkId(3, 0, 12);
  entry.current_in = {3, 7, 9};
  entry.new_location = {5, 1000};
  entry.stored_size = 640;
  record.entries.push_back(entry);
  auto back = CleanerRecord::Unpickle(record.Pickle());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->entries.size(), 1u);
  EXPECT_EQ(back->entries[0].original_id, entry.original_id);
  EXPECT_EQ(back->entries[0].current_in, entry.current_in);
  EXPECT_EQ(back->entries[0].new_location, entry.new_location);
  EXPECT_EQ(back->entries[0].stored_size, 640u);
}

TEST(SystemLeaderRecordTest, RoundTrip) {
  SystemLeaderRecord record;
  record.system_tree.params =
      CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)};
  record.system_tree.num_positions = 5;
  record.segments.resize(4);
  record.segments[1].state = SegmentInfo::State::kLive;
  record.segments[1].bytes_used = 100;
  record.segments[1].live_bytes = 60;
  record.segments[2].state = SegmentInfo::State::kCleaned;
  record.commit_count = 77;
  auto back = SystemLeaderRecord::Unpickle(record.Pickle());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->commit_count, 77u);
  ASSERT_EQ(back->segments.size(), 4u);
  EXPECT_EQ(back->segments[1].state, SegmentInfo::State::kLive);
  EXPECT_EQ(back->segments[1].bytes_used, 100u);
  EXPECT_EQ(back->segments[2].state, SegmentInfo::State::kCleaned);
}

// --- descriptor cache ---

Descriptor WrittenDesc(uint32_t seg) {
  Descriptor d;
  d.status = ChunkStatus::kWritten;
  d.location = {seg, 0};
  d.stored_size = 10;
  d.hash = Bytes(4, static_cast<uint8_t>(seg));
  return d;
}

TEST(DescriptorCacheTest, CleanEvictionByLru) {
  DescriptorCache cache(2);
  cache.PutClean(ChunkId(1, 0, 1), WrittenDesc(1));
  cache.PutClean(ChunkId(1, 0, 2), WrittenDesc(2));
  (void)cache.Get(ChunkId(1, 0, 1));  // touch 1 so 2 becomes LRU
  cache.PutClean(ChunkId(1, 0, 3), WrittenDesc(3));
  EXPECT_TRUE(cache.Get(ChunkId(1, 0, 1)).has_value());
  EXPECT_FALSE(cache.Get(ChunkId(1, 0, 2)).has_value());
  EXPECT_TRUE(cache.Get(ChunkId(1, 0, 3)).has_value());
}

TEST(DescriptorCacheTest, DirtyEntriesAreNeverEvicted) {
  DescriptorCache cache(2);
  cache.PutDirty(ChunkId(1, 0, 1), WrittenDesc(1));
  cache.PutDirty(ChunkId(1, 0, 2), WrittenDesc(2));
  for (uint64_t r = 3; r < 20; ++r) {
    cache.PutClean(ChunkId(1, 0, r), WrittenDesc(static_cast<uint32_t>(r)));
  }
  EXPECT_TRUE(cache.Get(ChunkId(1, 0, 1)).has_value());
  EXPECT_TRUE(cache.Get(ChunkId(1, 0, 2)).has_value());
  EXPECT_EQ(cache.dirty_count(), 2u);
}

TEST(DescriptorCacheTest, PutCleanNeverDowngradesDirty) {
  DescriptorCache cache(8);
  cache.PutDirty(ChunkId(1, 0, 1), WrittenDesc(42));
  cache.PutClean(ChunkId(1, 0, 1), WrittenDesc(1));  // stale map content
  EXPECT_EQ(cache.Get(ChunkId(1, 0, 1))->location.segment, 42u);
  EXPECT_EQ(cache.dirty_count(), 1u);
}

TEST(DescriptorCacheTest, MarkCleanMovesToLru) {
  DescriptorCache cache(1);
  cache.PutDirty(ChunkId(1, 0, 1), WrittenDesc(1));
  cache.MarkClean(ChunkId(1, 0, 1));
  EXPECT_EQ(cache.dirty_count(), 0u);
  cache.PutClean(ChunkId(1, 0, 2), WrittenDesc(2));  // evicts entry 1
  EXPECT_FALSE(cache.Get(ChunkId(1, 0, 1)).has_value());
}

TEST(DescriptorCacheTest, DirtyQueriesFilterByPartitionAndHeight) {
  DescriptorCache cache(16);
  cache.PutDirty(ChunkId(1, 0, 1), WrittenDesc(1));
  cache.PutDirty(ChunkId(1, 1, 0), WrittenDesc(2));
  cache.PutDirty(ChunkId(2, 0, 7), WrittenDesc(3));
  auto entries = cache.DirtyEntries(1, 0);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, ChunkId(1, 0, 1));
  auto partitions = cache.DirtyPartitions();  // any height
  EXPECT_EQ(partitions, (std::vector<PartitionId>{1, 2}));
}

TEST(DescriptorCacheTest, DropPartitionRemovesAllEntries) {
  DescriptorCache cache(16);
  cache.PutDirty(ChunkId(1, 0, 1), WrittenDesc(1));
  cache.PutClean(ChunkId(1, 1, 0), WrittenDesc(2));
  cache.PutDirty(ChunkId(2, 0, 1), WrittenDesc(3));
  cache.DropPartition(1);
  EXPECT_FALSE(cache.Get(ChunkId(1, 0, 1)).has_value());
  EXPECT_FALSE(cache.Get(ChunkId(1, 1, 0)).has_value());
  EXPECT_TRUE(cache.Get(ChunkId(2, 0, 1)).has_value());
  EXPECT_EQ(cache.dirty_count(), 1u);
}

// --- validators ---

TEST(DirectHashValidatorTest, RegisterRoundTrip) {
  MemTamperResistantRegister reg;
  DirectHashValidator validator(&reg, HashAlg::kSha256);
  validator.Absorb(BytesFromString("log bytes"));
  ASSERT_TRUE(validator.WriteRegister({1, 100}, {2, 200}).ok());
  auto state = validator.ReadRegister();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->head, (Location{1, 100}));
  EXPECT_EQ(state->tail, (Location{2, 200}));
  EXPECT_EQ(state->digest, validator.CurrentDigest());
}

TEST(DirectHashValidatorTest, CurrentDigestDoesNotDisturbStream) {
  MemTamperResistantRegister reg;
  DirectHashValidator validator(&reg, HashAlg::kSha256);
  validator.Absorb(BytesFromString("abc"));
  Bytes d1 = validator.CurrentDigest();
  Bytes d2 = validator.CurrentDigest();
  EXPECT_EQ(d1, d2);
  validator.Absorb(BytesFromString("def"));
  EXPECT_NE(validator.CurrentDigest(), d1);
  // Equivalent one-shot hash.
  EXPECT_EQ(validator.CurrentDigest(),
            HashData(HashAlg::kSha256, BytesFromString("abcdef")));
}

TEST(CounterValidatorTest, FlushBatchesByDeltaUt) {
  MemMonotonicCounter counter;
  CounterValidator validator(&counter, /*delta_ut=*/3);
  ASSERT_TRUE(validator.Init(0).ok());
  for (int i = 0; i < 2; ++i) {
    validator.NextCount();
    ASSERT_TRUE(validator.MaybeFlush(false).ok());
  }
  EXPECT_EQ(*counter.Read(), 0u);  // lag below delta_ut
  validator.NextCount();
  ASSERT_TRUE(validator.MaybeFlush(false).ok());
  EXPECT_EQ(*counter.Read(), 3u);
  validator.NextCount();
  ASSERT_TRUE(validator.MaybeFlush(true).ok());  // forced
  EXPECT_EQ(*counter.Read(), 4u);
}

TEST(CounterValidatorTest, RecoveryWindows) {
  MemMonotonicCounter counter;
  ASSERT_TRUE(counter.AdvanceTo(10).ok());
  {
    CounterValidator validator(&counter, /*delta_ut=*/2);
    ASSERT_TRUE(validator.Init(10).ok());
    // Log ahead within delta_ut: OK, counter resynchronizes.
    ASSERT_TRUE(validator.RecoveryCheck(12, /*delta_tu=*/0).ok());
    EXPECT_EQ(*counter.Read(), 12u);
  }
  {
    CounterValidator validator(&counter, /*delta_ut=*/2);
    ASSERT_TRUE(validator.Init(12).ok());
    // Log too far ahead: tampering.
    EXPECT_EQ(validator.RecoveryCheck(15, 0).code(),
              StatusCode::kTamperDetected);
    // Log behind with delta_tu = 0: replay/truncation.
    EXPECT_EQ(validator.RecoveryCheck(11, 0).code(),
              StatusCode::kTamperDetected);
    // Log behind within delta_tu: tolerated.
    EXPECT_TRUE(validator.RecoveryCheck(11, 1).ok());
  }
}

}  // namespace
}  // namespace tdb
