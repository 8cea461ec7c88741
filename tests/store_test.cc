// Unit tests for the storage substrates: untrusted store (memory and file),
// crash semantics, fault injection, trusted stores, and archival streams.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/common/rng.h"
#include "src/platform/trusted_store.h"
#include "src/store/archival_store.h"
#include "src/store/faulty_store.h"
#include "src/store/tamper_store.h"
#include "src/store/untrusted_store.h"

namespace tdb {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(MemUntrustedStoreTest, WriteReadRoundTrip) {
  MemUntrustedStore store({.segment_size = 1024, .num_segments = 4});
  Bytes data = BytesFromString("hello");
  ASSERT_TRUE(store.Write(1, 100, data).ok());
  auto back = store.Read(1, 100, 5);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(MemUntrustedStoreTest, BoundsChecked) {
  MemUntrustedStore store({.segment_size = 128, .num_segments = 2});
  EXPECT_FALSE(store.Write(2, 0, BytesFromString("x")).ok());
  EXPECT_FALSE(store.Write(0, 127, BytesFromString("xy")).ok());
  EXPECT_FALSE(store.Read(0, 120, 9).ok());
  EXPECT_TRUE(store.Write(0, 127, BytesFromString("x")).ok());
}

TEST(MemUntrustedStoreTest, CrashDiscardsUnflushedWrites) {
  MemUntrustedStore store({.segment_size = 128, .num_segments = 2});
  ASSERT_TRUE(store.Write(0, 0, BytesFromString("durable")).ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.Write(0, 0, BytesFromString("gone!!!")).ok());
  // Before the crash, the store sees its own writes.
  EXPECT_EQ(*store.Read(0, 0, 7), BytesFromString("gone!!!"));
  store.Crash();
  EXPECT_EQ(*store.Read(0, 0, 7), BytesFromString("durable"));
}

TEST(MemUntrustedStoreTest, CorruptionPrimitives) {
  MemUntrustedStore store({.segment_size = 128, .num_segments = 2});
  ASSERT_TRUE(store.Write(0, 10, BytesFromString("abc")).ok());
  ASSERT_TRUE(store.Flush().ok());
  store.CorruptByte(0, 10, 0xff);
  EXPECT_EQ((*store.Read(0, 10, 1))[0], 'a' ^ 0xff);
  Bytes snapshot = store.DumpSegment(0);
  ASSERT_TRUE(store.Write(0, 10, BytesFromString("xyz")).ok());
  store.RestoreSegment(0, snapshot);
  EXPECT_EQ((*store.Read(0, 11, 2)), BytesFromString("bc"));
}

TEST(MemUntrustedStoreTest, UnwrittenSegmentsReadAsZeros) {
  MemUntrustedStore store({.segment_size = 128, .num_segments = 2});
  EXPECT_EQ(*store.Read(1, 120, 8), Bytes(8, 0));
  EXPECT_EQ(store.DumpSegment(1), Bytes(128, 0));
  ASSERT_TRUE(store.Write(1, 0, BytesFromString("new")).ok());
  store.Crash();  // a first write that never became durable
  EXPECT_EQ(store.DumpSegment(1), Bytes(128, 0));
}

TEST(MemUntrustedStoreTest, CrashUndoesOverlappingWritesButKeepsTampering) {
  MemUntrustedStore store({.segment_size = 128, .num_segments = 2});
  ASSERT_TRUE(store.Write(0, 0, BytesFromString("aaaa")).ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.Write(0, 0, BytesFromString("bbbb")).ok());
  ASSERT_TRUE(store.Write(0, 1, BytesFromString("cc")).ok());
  store.CorruptByte(0, 3, 0x01);  // 'b' -> 'c', durable at once
  EXPECT_EQ(*store.Read(0, 0, 4), BytesFromString("bccc"));
  store.Crash();
  EXPECT_EQ(*store.Read(0, 0, 4), BytesFromString("aaac"));

  // CorruptRange makes the whole segment durable, unflushed writes too.
  ASSERT_TRUE(store.Write(1, 10, BytesFromString("dd")).ok());
  store.CorruptRange(1, 0, BytesFromString("zz"));
  store.Crash();
  EXPECT_EQ(*store.Read(1, 0, 2), BytesFromString("zz"));
  EXPECT_EQ(*store.Read(1, 10, 2), BytesFromString("dd"));
}

TEST(MemUntrustedStoreTest, SuperblockRoundTrip) {
  MemUntrustedStore store({.segment_size = 128, .num_segments = 2});
  EXPECT_TRUE(store.ReadSuperblock()->empty());
  ASSERT_TRUE(store.WriteSuperblock(BytesFromString("sb")).ok());
  EXPECT_EQ(*store.ReadSuperblock(), BytesFromString("sb"));
}

TEST(FileUntrustedStoreTest, PersistsAcrossReopen) {
  std::string path = TempPath("tdb_store_test.bin");
  std::remove(path.c_str());
  {
    auto store =
        FileUntrustedStore::Open(path, {.segment_size = 512, .num_segments = 4});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Write(2, 7, BytesFromString("persisted")).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->WriteSuperblock(BytesFromString("super")).ok());
  }
  {
    auto store =
        FileUntrustedStore::Open(path, {.segment_size = 512, .num_segments = 4});
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(*(*store)->Read(2, 7, 9), BytesFromString("persisted"));
    EXPECT_EQ(*(*store)->ReadSuperblock(), BytesFromString("super"));
  }
  std::remove(path.c_str());
}

TEST(FileUntrustedStoreTest, SuperblockSurvivesTornWrite) {
  // WriteSuperblock alternates between two checksummed slots; a torn write
  // (here: garbage over the slot being written) must leave the previous
  // superblock readable — the old single-slot format turned a torn write
  // into a permanently unreadable store.
  std::string path = TempPath("tdb_store_torn_sb.bin");
  std::remove(path.c_str());
  UntrustedStoreOptions opts{.segment_size = 512, .num_segments = 4};
  {
    auto store = FileUntrustedStore::Open(path, opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->WriteSuperblock(BytesFromString("v1")).ok());
    ASSERT_TRUE((*store)->WriteSuperblock(BytesFromString("v2")).ok());
  }
  // v1 went to slot 1 (seq 1), v2 to slot 0 (seq 2). Tear every prefix
  // length of slot 0 by zeroing its tail; the reader must fall back to v1.
  for (size_t keep = 0; keep < 64; ++keep) {
    Bytes dump;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      dump.resize(FileUntrustedStore::kSuperblockSlotSize);
      ASSERT_EQ(std::fread(dump.data(), 1, dump.size(), f), dump.size());
      std::fclose(f);
    }
    Bytes torn = dump;
    for (size_t i = keep; i < torn.size(); ++i) {
      torn[i] = 0;
    }
    std::string torn_path = TempPath("tdb_store_torn_sb_case.bin");
    ASSERT_TRUE(std::filesystem::copy_file(
        path, torn_path, std::filesystem::copy_options::overwrite_existing));
    {
      std::FILE* f = std::fopen(torn_path.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(torn.data(), 1, torn.size(), f), torn.size());
      std::fclose(f);
    }
    auto store = FileUntrustedStore::Open(torn_path, opts);
    ASSERT_TRUE(store.ok());
    auto sb = (*store)->ReadSuperblock();
    ASSERT_TRUE(sb.ok()) << "keep=" << keep;
    // v2's record is header + payload + checksum bytes long; a tear inside
    // it must fall back to v1, a tear past it leaves v2 intact.
    size_t record = FileUntrustedStore::kSuperblockSlotHeader + 2 +
                    FileUntrustedStore::kSuperblockSlotChecksum;
    if (keep < record) {
      EXPECT_EQ(*sb, BytesFromString("v1")) << "keep=" << keep;
    } else {
      EXPECT_EQ(*sb, BytesFromString("v2")) << "keep=" << keep;
    }
    // And the store must accept the next superblock write.
    ASSERT_TRUE((*store)->WriteSuperblock(BytesFromString("v3")).ok());
    EXPECT_EQ(*(*store)->ReadSuperblock(), BytesFromString("v3"));
    std::remove(torn_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(FileUntrustedStoreTest, FreshSuperblockReadsEmpty) {
  std::string path = TempPath("tdb_store_fresh_sb.bin");
  std::remove(path.c_str());
  auto store = FileUntrustedStore::Open(
      path, {.segment_size = 512, .num_segments = 4});
  ASSERT_TRUE(store.ok());
  auto sb = (*store)->ReadSuperblock();
  ASSERT_TRUE(sb.ok());
  EXPECT_TRUE(sb->empty());
  std::remove(path.c_str());
}

TEST(FaultyStoreTest, FailsAfterCountdown) {
  MemUntrustedStore base({.segment_size = 128, .num_segments = 2});
  FaultyStore store(&base);
  store.FailAfterWrites(2);
  EXPECT_TRUE(store.Write(0, 0, BytesFromString("a")).ok());
  EXPECT_TRUE(store.Write(0, 1, BytesFromString("b")).ok());
  EXPECT_EQ(store.Write(0, 2, BytesFromString("c")).code(),
            StatusCode::kIoError);
  EXPECT_EQ(store.Flush().code(), StatusCode::kIoError);
  store.ClearFault();
  EXPECT_TRUE(store.Write(0, 2, BytesFromString("c")).ok());
}

TEST(FaultyStoreTest, TornWritePersistsPrefix) {
  MemUntrustedStore base({.segment_size = 128, .num_segments = 2});
  FaultyStore store(&base);
  store.SetTearFraction(0.5);
  store.FailAfterWrites(0);
  EXPECT_FALSE(store.Write(0, 0, BytesFromString("abcdef")).ok());
  // The first half landed in the base store.
  EXPECT_EQ(*base.Read(0, 0, 3), BytesFromString("abc"));
  EXPECT_EQ(*base.Read(0, 3, 3), Bytes(3, 0));
}

TEST(FaultyStoreTest, TearFractionControlsPersistedPrefix) {
  MemUntrustedStore base({.segment_size = 128, .num_segments = 2});
  FaultyStore store(&base);
  // A quarter of an 8-byte write: 2 bytes survive.
  store.SetTearFraction(0.25);
  store.FailAfterWrites(0);
  EXPECT_FALSE(store.Write(0, 0, BytesFromString("abcdefgh")).ok());
  EXPECT_EQ(*base.Read(0, 0, 2), BytesFromString("ab"));
  EXPECT_EQ(*base.Read(0, 2, 6), Bytes(6, 0));

  // Fraction 1.0: the device persisted everything but the ack was lost.
  store.ClearFault();
  store.SetTearFraction(1.0);
  store.FailAfterWrites(0);
  EXPECT_FALSE(store.Write(0, 16, BytesFromString("whole")).ok());
  EXPECT_EQ(*base.Read(0, 16, 5), BytesFromString("whole"));

  // Fraction 0: a clean failure, nothing persisted.
  store.ClearFault();
  store.SetTearFraction(0.0);
  store.FailAfterWrites(0);
  EXPECT_FALSE(store.Write(0, 32, BytesFromString("none")).ok());
  EXPECT_EQ(*base.Read(0, 32, 4), Bytes(4, 0));
}

TEST(FaultyStoreTest, FailsReadsAfterCountdown) {
  MemUntrustedStore base({.segment_size = 128, .num_segments = 2});
  ASSERT_TRUE(base.Write(0, 0, BytesFromString("abc")).ok());
  ASSERT_TRUE(base.Flush().ok());
  FaultyStore store(&base);
  store.FailAfterReads(2);
  EXPECT_TRUE(store.Read(0, 0, 3).ok());
  EXPECT_TRUE(store.Read(0, 1, 1).ok());
  EXPECT_EQ(store.Read(0, 0, 3).status().code(), StatusCode::kIoError);
  // Reads keep failing until the fault is cleared; writes are unaffected.
  EXPECT_EQ(store.ReadSuperblock().status().code(), StatusCode::kIoError);
  EXPECT_TRUE(store.Write(0, 8, BytesFromString("w")).ok());
  EXPECT_TRUE(store.faulted());
  store.ClearFault();
  EXPECT_EQ(*store.Read(0, 0, 3), BytesFromString("abc"));
  EXPECT_EQ(store.read_count(), 3u);
}

TEST(FaultyStoreTest, ReadFaultCoversSuperblock) {
  MemUntrustedStore base({.segment_size = 128, .num_segments = 2});
  ASSERT_TRUE(base.WriteSuperblock(BytesFromString("sb")).ok());
  FaultyStore store(&base);
  store.FailAfterReads(0);
  EXPECT_EQ(store.ReadSuperblock().status().code(), StatusCode::kIoError);
  store.ClearFault();
  EXPECT_EQ(*store.ReadSuperblock(), BytesFromString("sb"));
}

TEST(TamperStoreTest, FlipBitsAndOverwrite) {
  MemUntrustedStore base({.segment_size = 128, .num_segments = 4});
  ASSERT_TRUE(base.Write(1, 10, BytesFromString("abcdef")).ok());
  ASSERT_TRUE(base.Flush().ok());
  TamperStore tamper(&base);
  ASSERT_TRUE(tamper.FlipBits(1, 10, 0x01).ok());
  EXPECT_EQ((*base.Read(1, 10, 1))[0], 'a' ^ 0x01);
  EXPECT_FALSE(tamper.FlipBits(1, 10, 0x00).ok());  // must flip something

  Rng rng(7);
  ASSERT_TRUE(tamper.OverwriteRandom(1, 10, 6, rng).ok());
  EXPECT_NE(*base.Read(1, 10, 6), BytesFromString("abcdef"));
  ASSERT_TRUE(tamper.Overwrite(1, 10, BytesFromString("zz")).ok());
  EXPECT_EQ(*base.Read(1, 10, 2), BytesFromString("zz"));
  EXPECT_EQ(tamper.tamper_count(), 3u);
}

TEST(TamperStoreTest, CaptureAndReplaySegment) {
  MemUntrustedStore base({.segment_size = 128, .num_segments = 4});
  ASSERT_TRUE(base.Write(0, 0, BytesFromString("old state")).ok());
  ASSERT_TRUE(base.Flush().ok());
  TamperStore tamper(&base);
  auto captured = tamper.CaptureSegment(0);
  ASSERT_TRUE(captured.ok());
  ASSERT_TRUE(base.Write(0, 0, BytesFromString("new state")).ok());
  ASSERT_TRUE(base.Flush().ok());
  ASSERT_TRUE(tamper.ReplaySegment(0, *captured).ok());
  EXPECT_EQ(*base.Read(0, 0, 9), BytesFromString("old state"));
  // Replay is durable: it survives a device crash.
  base.Crash();
  EXPECT_EQ(*base.Read(0, 0, 9), BytesFromString("old state"));
}

TEST(TamperStoreTest, SwapTruncateGrow) {
  MemUntrustedStore base({.segment_size = 64, .num_segments = 4});
  ASSERT_TRUE(base.Write(0, 0, BytesFromString("seg-zero")).ok());
  ASSERT_TRUE(base.Write(1, 0, BytesFromString("seg-one!")).ok());
  ASSERT_TRUE(base.Flush().ok());
  TamperStore tamper(&base);
  ASSERT_TRUE(tamper.SwapSegments(0, 1).ok());
  EXPECT_EQ(*base.Read(0, 0, 8), BytesFromString("seg-one!"));
  EXPECT_EQ(*base.Read(1, 0, 8), BytesFromString("seg-zero"));

  ASSERT_TRUE(tamper.TruncateSegment(0, 4).ok());
  EXPECT_EQ(*base.Read(0, 0, 4), BytesFromString("seg-"));
  EXPECT_EQ(*base.Read(0, 4, 60), Bytes(60, 0));

  Rng rng(11);
  ASSERT_TRUE(tamper.GrowSegment(1, 8, rng).ok());
  EXPECT_EQ(*base.Read(1, 0, 8), BytesFromString("seg-zero"));
  EXPECT_NE(*base.Read(1, 8, 56), Bytes(56, 0));
}

TEST(TamperStoreTest, FullStoreRollback) {
  MemUntrustedStore base({.segment_size = 64, .num_segments = 2});
  ASSERT_TRUE(base.Write(0, 0, BytesFromString("v1")).ok());
  ASSERT_TRUE(base.Flush().ok());
  ASSERT_TRUE(base.WriteSuperblock(BytesFromString("sb1")).ok());
  TamperStore tamper(&base);
  auto image = tamper.CaptureStore();
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(base.Write(0, 0, BytesFromString("v2")).ok());
  ASSERT_TRUE(base.Flush().ok());
  ASSERT_TRUE(base.WriteSuperblock(BytesFromString("sb2")).ok());
  ASSERT_TRUE(tamper.ReplayStore(*image).ok());
  EXPECT_EQ(*base.Read(0, 0, 2), BytesFromString("v1"));
  EXPECT_EQ(*base.ReadSuperblock(), BytesFromString("sb1"));
}

TEST(TrustedStoreTest, MemRegisterRoundTrip) {
  MemTamperResistantRegister reg;
  EXPECT_TRUE(reg.Read()->empty());
  ASSERT_TRUE(reg.Write(BytesFromString("state")).ok());
  EXPECT_EQ(*reg.Read(), BytesFromString("state"));
}

TEST(TrustedStoreTest, MemCounterIsMonotonic) {
  MemMonotonicCounter counter;
  EXPECT_EQ(*counter.Read(), 0u);
  ASSERT_TRUE(counter.AdvanceTo(5).ok());
  EXPECT_EQ(*counter.Read(), 5u);
  EXPECT_TRUE(counter.AdvanceTo(5).ok());  // no-op advance allowed
  EXPECT_FALSE(counter.AdvanceTo(4).ok());
  EXPECT_EQ(*counter.Read(), 5u);
}

TEST(TrustedStoreTest, FileRegisterSurvivesReopen) {
  std::string path = TempPath("tdb_reg_test");
  std::remove((path + ".slot0").c_str());
  std::remove((path + ".slot1").c_str());
  {
    auto reg = FileTamperResistantRegister::Open(path);
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE((*reg)->Write(BytesFromString("v1")).ok());
    ASSERT_TRUE((*reg)->Write(BytesFromString("v2")).ok());
  }
  {
    auto reg = FileTamperResistantRegister::Open(path);
    ASSERT_TRUE(reg.ok());
    EXPECT_EQ(*(*reg)->Read(), BytesFromString("v2"));
  }
  std::remove((path + ".slot0").c_str());
  std::remove((path + ".slot1").c_str());
}

TEST(TrustedStoreTest, FileRegisterSurvivesTornSlot) {
  std::string path = TempPath("tdb_reg_torn");
  std::remove((path + ".slot0").c_str());
  std::remove((path + ".slot1").c_str());
  {
    auto reg = FileTamperResistantRegister::Open(path);
    ASSERT_TRUE(reg.ok());
    ASSERT_TRUE((*reg)->Write(BytesFromString("v1")).ok());  // slot 1
    ASSERT_TRUE((*reg)->Write(BytesFromString("v2")).ok());  // slot 0
  }
  // Corrupt the newer slot; the older value must be recovered.
  {
    std::FILE* f = std::fopen((path + ".slot0").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc(0xFF, f);
    std::fclose(f);
  }
  {
    auto reg = FileTamperResistantRegister::Open(path);
    ASSERT_TRUE(reg.ok());
    EXPECT_EQ(*(*reg)->Read(), BytesFromString("v1"));
  }
  std::remove((path + ".slot0").c_str());
  std::remove((path + ".slot1").c_str());
}

TEST(TrustedStoreTest, FileCounterMonotonicAcrossReopen) {
  std::string path = TempPath("tdb_ctr_test");
  std::remove((path + ".slot0").c_str());
  std::remove((path + ".slot1").c_str());
  {
    auto counter = FileMonotonicCounter::Open(path);
    ASSERT_TRUE(counter.ok());
    ASSERT_TRUE((*counter)->AdvanceTo(9).ok());
  }
  {
    auto counter = FileMonotonicCounter::Open(path);
    ASSERT_TRUE(counter.ok());
    EXPECT_EQ(*(*counter)->Read(), 9u);
    EXPECT_FALSE((*counter)->AdvanceTo(3).ok());
  }
  std::remove((path + ".slot0").c_str());
  std::remove((path + ".slot1").c_str());
}

TEST(ArchivalStoreTest, MemStreamRoundTrip) {
  MemArchive archive;
  {
    auto sink = archive.OpenSink("backup1");
    ASSERT_TRUE(sink->Write(BytesFromString("part1-")).ok());
    ASSERT_TRUE(sink->Write(BytesFromString("part2")).ok());
    ASSERT_TRUE(sink->Close().ok());
  }
  EXPECT_TRUE(archive.Contains("backup1"));
  EXPECT_FALSE(archive.Contains("backup2"));
  auto source = archive.OpenSource("backup1");
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(*(*source)->Read(6), BytesFromString("part1-"));
  EXPECT_EQ(*(*source)->Read(100), BytesFromString("part2"));
  EXPECT_TRUE((*source)->Read(10)->empty());
}

TEST(ArchivalStoreTest, CorruptFlipsByte) {
  MemArchive archive;
  auto sink = archive.OpenSink("s");
  ASSERT_TRUE(sink->Write(BytesFromString("abc")).ok());
  ASSERT_TRUE(sink->Close().ok());
  ASSERT_TRUE(archive.Corrupt("s", 1, 0x01).ok());
  auto source = archive.OpenSource("s");
  EXPECT_EQ((*(*source)->Read(3))[1], 'b' ^ 0x01);
}

TEST(ArchivalStoreTest, FileStreamRoundTrip) {
  std::string path = TempPath("tdb_archive_test.bak");
  std::remove(path.c_str());
  {
    auto sink = OpenFileSink(path);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE((*sink)->Write(BytesFromString("archived bytes")).ok());
    ASSERT_TRUE((*sink)->Close().ok());
  }
  auto source = OpenFileSource(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(*(*source)->Read(1000), BytesFromString("archived bytes"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdb
