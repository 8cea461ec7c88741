// Fuzz-style robustness tests for every parser that consumes bytes from the
// untrusted store, an archival stream or a peer on the wire. Two
// generators, both driven by a deterministic seeded Rng so failures
// reproduce:
//
//   1. pure-random byte strings of every length 0..N, and
//   2. single-bit flips of valid pickles (the adversarially interesting
//      neighborhood: almost-valid input).
//
// Every parser must return either a valid object or a clean non-OK Status —
// no crash, no unbounded allocation, no hang. Length-bomb regressions (huge
// varint element counts that used to reach vector::reserve) are pinned
// explicitly.

#include <gtest/gtest.h>

#include <string>

#include "src/backup/backup_store.h"
#include "src/chunk/descriptor.h"
#include "src/chunk/log_format.h"
#include "src/chunk/log_manager.h"
#include "src/common/pickle.h"
#include "src/common/rng.h"
#include "src/crypto/suite.h"
#include "src/server/wire.h"
#include "src/shard/directory.h"

namespace tdb {
namespace {

// A parser under test: consumes bytes, returns a Status. The object result
// is discarded — the contract under fuzzing is only "no crash, clean error".
using Parser = Status (*)(ByteView);

Status ParseDescriptor(ByteView data) {
  PickleReader r(data);
  return Descriptor::Unpickle(r).status();
}
Status ParseMapChunk(ByteView data) {
  return MapChunk::Unpickle(data).status();
}
Status ParsePartitionLeader(ByteView data) {
  return PartitionLeader::UnpickleFromBytes(data).status();
}
Status ParseSystemLeader(ByteView data) {
  return SystemLeaderRecord::Unpickle(data).status();
}
Status ParseSegmentInfo(ByteView data) {
  PickleReader r(data);
  return SegmentInfo::Unpickle(r).status();
}
Status ParseDeallocate(ByteView data) {
  return DeallocateRecord::Unpickle(data).status();
}
Status ParseCommit(ByteView data) {
  return CommitRecord::Unpickle(data).status();
}
Status ParseNextSegment(ByteView data) {
  return NextSegmentRecord::Unpickle(data).status();
}
Status ParseCleaner(ByteView data) {
  return CleanerRecord::Unpickle(data).status();
}
Status ParseBackupDescriptor(ByteView data) {
  return BackupDescriptor::Unpickle(data).status();
}
// A server's kStats payload, read by a client from the wire; whatever it
// accepts must also render.
Status ParseStatsSnapshot(ByteView data) {
  Result<obs::StatsSnapshot> snapshot = server::UnpickleSnapshot(data);
  if (snapshot.ok()) {
    (void)obs::ToJson(*snapshot);
  }
  return snapshot.status();
}
// A server's kPartitionList/kPartitionLookup payload, read by a client.
Status ParseEntryList(ByteView data) {
  return shard::UnpickleEntryList(data).status();
}
// A frame as the server reads it from a client, and the answer as the
// client reads it from the server.
Status ParseRequests(ByteView data) {
  return server::DecodeRequests(data).status();
}
Status ParseResponses(ByteView data) {
  return server::DecodeResponses(data).status();
}

struct NamedParser {
  const char* name;
  Parser parse;
};

const NamedParser kParsers[] = {
    {"Descriptor", ParseDescriptor},
    {"MapChunk", ParseMapChunk},
    {"PartitionLeader", ParsePartitionLeader},
    {"SystemLeaderRecord", ParseSystemLeader},
    {"SegmentInfo", ParseSegmentInfo},
    {"DeallocateRecord", ParseDeallocate},
    {"CommitRecord", ParseCommit},
    {"NextSegmentRecord", ParseNextSegment},
    {"CleanerRecord", ParseCleaner},
    {"BackupDescriptor", ParseBackupDescriptor},
    {"StatsSnapshot", ParseStatsSnapshot},
    {"PartitionEntryList", ParseEntryList},
    {"RequestFrame", ParseRequests},
    {"ResponseFrame", ParseResponses},
};

// ---- Valid exemplars for the bit-flip neighborhood ----

CryptoParams ValidParams() {
  return CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 0x5C)};
}

Descriptor ValidDescriptor() {
  Descriptor d;
  d.status = ChunkStatus::kWritten;
  d.location = Location{3, 4096};
  d.stored_size = 321;
  d.hash = Bytes(32, 0xAB);
  return d;
}

Bytes ValidDescriptorBytes() {
  PickleWriter w;
  ValidDescriptor().Pickle(w);
  return w.Take();
}

Bytes ValidMapChunkBytes() {
  MapChunk map;
  for (uint64_t i = 0; i < kMapFanout; i += 3) {
    map.slots[i] = ValidDescriptor();
  }
  return map.Pickle();
}

PartitionLeader ValidLeader() {
  PartitionLeader leader;
  leader.params = ValidParams();
  leader.tree_height = 2;
  leader.root = ValidDescriptor();
  leader.num_positions = 100;
  leader.free_ranks = {7, 8, 90};
  leader.copies = {4, 5};
  leader.copied_from = 2;
  return leader;
}

Bytes ValidSystemLeaderBytes() {
  SystemLeaderRecord rec;
  rec.system_tree = ValidLeader();
  rec.segments.resize(8);
  rec.segments[0].state = SegmentInfo::State::kLive;
  rec.segments[0].bytes_used = 1000;
  rec.segments[0].live_bytes = 600;
  rec.commit_count = 42;
  return rec.Pickle();
}

Bytes ValidDeallocateBytes() {
  DeallocateRecord rec;
  rec.chunks = {ChunkId(1, 0, 5), ChunkId(2, 1, 0)};
  rec.partitions = {9};
  return rec.Pickle();
}

Bytes ValidCommitBytes() {
  CommitRecord rec;
  rec.count = 17;
  rec.set_digest = Bytes(32, 0x11);
  rec.mac = Bytes(32, 0x22);
  return rec.Pickle();
}

Bytes ValidCleanerBytes() {
  CleanerRecord rec;
  CleanerEntry e;
  e.original_id = ChunkId(3, 0, 12);
  e.current_in = {3, 7};
  e.new_location = Location{5, 128};
  e.stored_size = 77;
  rec.entries.push_back(e);
  return rec.Pickle();
}

Bytes ValidBackupDescriptorBytes() {
  BackupDescriptor d;
  d.source = 3;
  d.snapshot = 9;
  d.base_snapshot = 4;
  d.backup_set_id = 0xDEADBEEF;
  d.set_size = 2;
  d.params = ValidParams();
  d.created_unix = 1700000000;
  return d.Pickle();
}

Bytes ValidStatsSnapshotBytes() {
  obs::StatsSnapshot s;
  s.metrics_enabled = true;
  s.modules = {{"chunk_store", 812.5, 40}};
  s.counters = {{"chunk.commits", 40}, {"server.requests", 123}};
  s.gauges = {{"chunk.live_log_bytes", 4096.0}};
  obs::MetricsRegistry::HistogramSnapshot h;
  h.name = "wire.op.commit.us";
  h.count = 3;
  h.sum = 70.0;
  h.min = 10.0;
  h.max = 40.0;
  h.buckets.resize(obs::kNumLatencyBuckets);
  h.buckets[obs::BucketIndex(10.0)] = 1;
  h.buckets[obs::BucketIndex(20.0)] = 1;
  h.buckets[obs::BucketIndex(40.0)] = 1;
  s.histograms = {h};
  s.derived = {{"write_amplification", 3.25}};
  s.trace_capacity = 64;
  s.trace_total_emitted = 2;
  s.trace_counts[static_cast<size_t>(obs::TraceKind::kCommit)] = 2;
  s.trace_events = {{7, 1000, obs::TraceKind::kCommit, "chunk", 3, 512, ""},
                    {8, 1200, obs::TraceKind::kCommit, "chunk", 1, 64, "x"}};
  return server::PickleSnapshot(s);
}

Bytes ValidEntryListBytes() {
  std::vector<shard::PartitionEntry> entries(2);
  entries[0].id = 2;
  entries[0].name = "orders";
  entries[0].epoch = 1;
  entries[1].id = 3;
  entries[1].name = "users";
  entries[1].moved = true;
  entries[1].moved_to = "10.0.0.2:7478";
  entries[1].epoch = 4;
  return shard::PickleEntryList(entries);
}

// A transaction's begin and put riding with its commit.
Bytes ValidRequestFrameBytes() {
  std::vector<server::Request> requests(3);
  requests[0].op = server::Op::kBegin;
  requests[0].partition = 2;
  requests[1].op = server::Op::kPut;
  requests[1].object_id = ChunkId(2, 0, 5).Pack();
  requests[1].object = BytesFromString("v1");
  requests[2].op = server::Op::kCommit;
  return server::EncodeRequests(requests);
}

Bytes ValidResponseFrameBytes() {
  std::vector<server::Response> responses(3);
  responses[0].object_id = 9;
  responses[1].object = BytesFromString("v1");
  responses[2].code = StatusCode::kMoved;
  responses[2].message = "moved to 10.0.0.2:7478";
  return server::EncodeResponses(responses);
}

Bytes ValidExemplar(const std::string& name) {
  if (name == "Descriptor") return ValidDescriptorBytes();
  if (name == "MapChunk") return ValidMapChunkBytes();
  if (name == "PartitionLeader") return ValidLeader().PickleToBytes();
  if (name == "SystemLeaderRecord") return ValidSystemLeaderBytes();
  if (name == "SegmentInfo") {
    PickleWriter w;
    SegmentInfo info;
    info.state = SegmentInfo::State::kLive;
    info.bytes_used = 512;
    info.live_bytes = 256;
    info.Pickle(w);
    return w.Take();
  }
  if (name == "DeallocateRecord") return ValidDeallocateBytes();
  if (name == "CommitRecord") return ValidCommitBytes();
  if (name == "NextSegmentRecord") return NextSegmentRecord{6}.Pickle();
  if (name == "CleanerRecord") return ValidCleanerBytes();
  if (name == "BackupDescriptor") return ValidBackupDescriptorBytes();
  if (name == "StatsSnapshot") return ValidStatsSnapshotBytes();
  if (name == "PartitionEntryList") return ValidEntryListBytes();
  if (name == "RequestFrame") return ValidRequestFrameBytes();
  if (name == "ResponseFrame") return ValidResponseFrameBytes();
  ADD_FAILURE() << "no exemplar for " << name;
  return {};
}

// Random byte strings of every length 0..256 through every parser. 16
// strings per length keeps the test fast while covering each parser's early
// length checks and each varint width.
TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF0021);
  for (size_t len = 0; len <= 256; ++len) {
    for (int trial = 0; trial < 16; ++trial) {
      Bytes data = rng.NextBytes(len);
      for (const NamedParser& p : kParsers) {
        Status s = p.parse(data);
        // OK on random bytes is astronomically unlikely for the structured
        // parsers, but not a bug by itself (e.g. a 1-byte kFree descriptor);
        // the contract is simply: return, and return something well-formed.
        if (!s.ok()) {
          EXPECT_FALSE(s.message().empty())
              << p.name << " returned a status with no message";
        }
      }
    }
  }
}

// Long random inputs exercise the length-prefixed paths (ReadBytes, element
// counts) where a mis-read length could trigger a huge allocation.
TEST(ParserFuzzTest, LongRandomBytesNeverCrash) {
  Rng rng(0xF0022);
  for (int trial = 0; trial < 64; ++trial) {
    Bytes data = rng.NextBytes(8192);
    for (const NamedParser& p : kParsers) {
      (void)p.parse(data);
    }
  }
}

// Every single-bit flip of each parser's valid exemplar must parse cleanly
// or fail cleanly. This walks the entire radius-1 Hamming neighborhood —
// every length field, every enum, every count gets each of its bits flipped.
TEST(ParserFuzzTest, SingleBitFlipsOfValidInputNeverCrash) {
  for (const NamedParser& p : kParsers) {
    Bytes valid = ValidExemplar(p.name);
    ASSERT_TRUE(p.parse(valid).ok())
        << p.name << " exemplar does not round-trip: " << p.parse(valid);
    for (size_t byte = 0; byte < valid.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutated = valid;
        mutated[byte] ^= static_cast<uint8_t>(1u << bit);
        Status s = p.parse(mutated);
        if (!s.ok()) {
          EXPECT_FALSE(s.message().empty())
              << p.name << " byte " << byte << " bit " << bit;
        }
      }
    }
  }
}

// Truncations of valid input (every prefix) must fail cleanly, not read past
// the end or succeed on partial data plus trailing garbage semantics.
TEST(ParserFuzzTest, TruncatedValidInputFailsCleanly) {
  for (const NamedParser& p : kParsers) {
    Bytes valid = ValidExemplar(p.name);
    for (size_t len = 0; len < valid.size(); ++len) {
      Bytes prefix(valid.begin(), valid.begin() + len);
      (void)p.parse(prefix);  // must not crash; result may be ok for parsers
                              // that allow trailing-truncated optional parts
    }
  }
}

// Regression: adversarial varint counts (2^60 elements) used to reach
// vector::reserve and abort with bad_alloc / length_error. They must come
// back as a clean Status.
TEST(ParserFuzzTest, LengthBombsFailCleanlyInsteadOfAllocating) {
  // PartitionLeader with num_positions and num_free both 2^60.
  {
    PickleWriter w;
    ValidParams().Pickle(w);
    w.WriteU8(1);  // tree_height
    ValidDescriptor().Pickle(w);
    w.WriteVarint(uint64_t{1} << 60);  // num_positions
    w.WriteVarint(uint64_t{1} << 60);  // num_free
    Status s = ParsePartitionLeader(w.data());
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  }
  // SystemLeaderRecord with a 2^60-entry segment table.
  {
    PickleWriter w;
    ValidLeader().Pickle(w);
    w.WriteVarint(uint64_t{1} << 60);  // num_segments
    Status s = ParseSystemLeader(w.data());
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  }
  // PartitionLeader with a 2^60-entry copy list.
  {
    PartitionLeader leader = ValidLeader();
    leader.copies.clear();
    PickleWriter w;
    leader.params.Pickle(w);
    w.WriteU8(leader.tree_height);
    leader.root.Pickle(w);
    w.WriteVarint(leader.num_positions);
    w.WriteVarint(0);                  // num_free
    w.WriteVarint(uint64_t{1} << 60);  // num_copies
    Status s = ParsePartitionLeader(w.data());
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  }
  // A stats snapshot with a 2^60-entry module list, and one with a
  // histogram claiming 2^60 nonzero buckets.
  {
    PickleWriter w;
    w.WriteRaw(Bytes{1, 1, 1});        // enabled flags
    w.WriteVarint(uint64_t{1} << 60);  // modules
    Status s = ParseStatsSnapshot(w.data());
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  }
  {
    PickleWriter w;
    w.WriteRaw(Bytes{1, 1, 1});        // enabled flags
    w.WriteVarint(0);                  // modules
    w.WriteVarint(0);                  // counters
    w.WriteVarint(0);                  // gauges
    w.WriteVarint(1);                  // histograms
    w.WriteString("h");
    w.WriteVarint(1);                  // count
    w.WriteRaw(Bytes(24, 0));          // sum, min, max
    w.WriteBool(true);                 // buckets present
    w.WriteVarint(uint64_t{1} << 60);  // nonzero buckets
    Status s = ParseStatsSnapshot(w.data());
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  }
  // A partition listing that is only the entry count 2^60.
  {
    PickleWriter w;
    w.WriteVarint(uint64_t{1} << 60);
    Status s = ParseEntryList(w.data());
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  }
}

// DecodeHeader against a real system suite: random ciphertext blocks of the
// exact header size, random sizes around it, and single-bit flips of a valid
// encoded header. DecodeHeader is the recovery scanner's probe for the log
// tail, so it sees raw untrusted bytes constantly.
TEST(ParserFuzzTest, DecodeHeaderNeverCrashes) {
  auto suite = CryptoSuite::Create(ValidParams());
  ASSERT_TRUE(suite.ok()) << suite.status();
  const size_t ct_size = HeaderCipherSize(*suite);

  Rng rng(0xF0023);
  for (int trial = 0; trial < 256; ++trial) {
    (void)DecodeHeader(*suite, rng.NextBytes(ct_size));
  }
  for (size_t len = 0; len <= 2 * ct_size; ++len) {
    (void)DecodeHeader(*suite, rng.NextBytes(len));
  }

  Bytes valid = EncodeHeader(
      *suite, VersionHeader::Named(ChunkId(1, 0, 9), /*body_size=*/400));
  ASSERT_TRUE(DecodeHeader(*suite, valid).ok());
  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = valid;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      Result<VersionHeader> h = DecodeHeader(*suite, mutated);
      if (!h.ok()) {
        EXPECT_FALSE(h.status().message().empty());
      }
    }
  }
}

}  // namespace
}  // namespace tdb
