// Exhaustive crash-point injection sweep (the ALICE / torn-write
// discipline): every durability-relevant device operation — segment write,
// flush, superblock write, trusted-store update, archival write, XDB page
// write / WAL append / truncate — is a numbered crash point. Each workload
// first runs to completion against instrumented devices to learn its total
// point count N, then replays N times crashing at every point k, under
// several device semantics:
//
//   drop-unflushed  power loss: writes that were never Flush()ed evaporate
//                   (MemUntrustedStore::Crash), the in-flight op vanishes
//   keep, tear=0    the in-flight op vanishes but all earlier writes stay
//                   (a write-through device)
//   keep, tear=0.5  half of the in-flight write's bytes reach the device
//   keep, tear=1.0  all of the in-flight write's bytes reach the device but
//                   the op still reports failure (crash after DMA, before
//                   the ack)
//
// After every crash the stores are reopened from the *raw* devices and the
// sweep asserts the crash-consistency contract (DESIGN.md): recovery
// succeeds, no false tamper alarm, every acknowledged commit is intact,
// no torn mixture of states is visible, and the store (including the
// trusted register/counter) is still fully usable.
//
// Workloads: batch commit, checkpoint, segment clean, segment reuse, backup
// write, backup restore, XDB WAL commit, trusted-register advance
// (file-backed, torn at every byte), and a file-backed chunk store sweep.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/backup/backup_store.h"
#include "src/chunk/chunk_store.h"
#include "src/common/crash_point.h"
#include "src/platform/crash_point_trusted.h"
#include "src/platform/trusted_store.h"
#include "src/store/archival_store.h"
#include "src/store/crash_point_store.h"
#include "src/store/untrusted_store.h"
#include "src/xdb/crash_point_files.h"
#include "src/xdb/xdb.h"

namespace tdb {
namespace {

CryptoParams Params() {
  return CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 0x21)};
}

// Device semantics for one sweep configuration.
struct CrashConfig {
  bool drop_unflushed = false;  // power loss discards unflushed writes
  double tear = 0.0;            // prefix fraction of the in-flight write kept
  const char* name = "";
};

constexpr CrashConfig kFullMatrix[] = {
    {true, 0.0, "drop"},
    {false, 0.0, "keep"},
    {false, 0.5, "keep+tear0.5"},
    {false, 1.0, "keep+tear1.0"},
};
// Reduced matrix for the heavier workloads.
constexpr CrashConfig kReducedMatrix[] = {
    {true, 0.0, "drop"},
    {false, 0.5, "keep+tear0.5"},
};

// ---------------------------------------------------------------------------
// Chunk-store workloads: a list of steps, each a commit of (slot -> value)
// changes, optionally followed by a checkpoint or a clean. Checkpoints and
// cleans do not change the logical (slot -> value) state, which is exactly
// the property the sweep verifies across their crash windows.

struct Step {
  std::map<int, std::optional<std::string>> changes;  // nullopt = dealloc
  bool checkpoint_after = false;
  bool clean_after = false;
};

std::vector<Step> CommitWorkload() {
  return {
      {{{0, "a0"}, {1, "b0"}}, false, false},
      {{{2, "c0"}}, false, false},
      {{{0, "a1"}, {3, "d0"}}, true, false},
      {{{4, "e0"}, {0, "a2"}}, false, false},
      {{{2, "c1"}}, false, false},
      {{{1, std::nullopt}}, false, false},
  };
}

std::vector<Step> CheckpointWorkload() {
  // Checkpoint-heavy: three checkpoints at different log shapes, including
  // back-to-back checkpoints with no intervening commit.
  return {
      {{{0, "a0"}, {1, "b0"}}, true, false},
      {{{0, "a1"}}, true, false},
      {{{2, "c0"}, {3, "d0"}}, false, false},
      {{{1, std::nullopt}, {4, "e0"}}, true, false},
      {{{3, "d1"}}, false, false},
  };
}

std::vector<Step> CleanWorkload() {
  // Big values on a small-segment store; repeated overwrites leave mostly-
  // dead segments behind, the checkpoint rotates them out of the residual
  // log, and the clean step rewrites the survivors.
  std::string v(700, 'x');
  auto val = [&](char c) {
    std::string s = v;
    s[0] = c;
    return s;
  };
  return {
      {{{0, val('a')}, {1, val('b')}, {2, val('c')}}, false, false},
      {{{3, val('d')}, {4, val('e')}}, false, false},
      {{{0, val('f')}, {1, val('g')}}, false, false},
      {{{2, val('h')}, {3, val('i')}}, true, false},
      {{{0, val('j')}, {4, val('k')}}, true, false},
      {{}, false, true},  // clean
      {{{1, val('l')}}, false, false},
  };
}

// Segments of the reuse workload's store.
constexpr uint32_t kReuseSegments = 16;

std::vector<Step> ReuseWorkload() {
  // Rounds of overwrites on a 16 x 4 KiB store. Each round fills about a
  // segment with versions that later rounds kill; its checkpoint moves them
  // out of the residual log and its clean frees them, so within a few
  // rounds PickFreeSegment hands out segments the cleaner freed. Slots 3
  // and 4 take turns, three rounds each, and the one at rest keeps its
  // version live, so segments differ in live bytes and the cleaner frees
  // them out of log order: a reused segment's stale link past the tail can
  // then point into a segment the log already visited (DESIGN.md,
  // deviation 3). Values of 300-1,100 bytes move record boundaries from
  // round to round. The live set stays under 6 KiB, so no commit runs out
  // of space.
  constexpr int kRounds = 12;
  constexpr int kCommitsPerRound = 5;
  std::vector<Step> steps;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kCommitsPerRound; ++i) {
      const int slot = i == 0 ? 3 + (round / 3) % 2 : i % 3;
      std::string value(300 + 400 * ((round + i) % 3),
                        static_cast<char>('a' + round));
      value[1] = static_cast<char>('0' + i);
      steps.push_back({{{slot, value}}, false, false});
    }
    steps.back().checkpoint_after = true;
    steps.back().clean_after = true;
  }
  return steps;
}

// Logical (slot -> value) state after each acknowledged step.
std::vector<std::map<int, std::string>> BoundaryStates(
    const std::vector<Step>& steps) {
  std::vector<std::map<int, std::string>> states;
  std::map<int, std::string> state;
  states.push_back(state);
  for (const Step& step : steps) {
    for (const auto& [slot, value] : step.changes) {
      if (value.has_value()) {
        state[slot] = *value;
      } else {
        state.erase(slot);
      }
    }
    states.push_back(state);
  }
  return states;
}

struct RunResult {
  bool store_created = false;    // ChunkStore::Create acknowledged
  bool partition_ready = false;  // the partition-create commit acknowledged
  int completed = 0;             // acknowledged steps
  size_t segments_cleaned = 0;
  PartitionId pid = 0;
};

// Runs the workload until an operation fails; returns how far it got.
RunResult RunSteps(ChunkStore& chunks, const std::vector<Step>& steps,
                   std::map<int, ChunkId>& slots) {
  RunResult r;
  r.store_created = true;
  auto pid = chunks.AllocatePartition();
  if (!pid.ok()) {
    return r;
  }
  r.pid = *pid;
  {
    ChunkStore::Batch batch;
    batch.WritePartition(*pid, Params());
    if (!chunks.Commit(std::move(batch)).ok()) {
      return r;
    }
  }
  r.partition_ready = true;
  for (const Step& step : steps) {
    if (!step.changes.empty()) {
      ChunkStore::Batch batch;
      bool prepare_failed = false;
      for (const auto& [slot, value] : step.changes) {
        if (value.has_value()) {
          if (slots.count(slot) == 0) {
            auto id = chunks.AllocateChunk(*pid);
            if (!id.ok()) {
              prepare_failed = true;
              break;
            }
            slots[slot] = *id;
          }
          batch.WriteChunk(slots[slot], BytesFromString(*value));
        } else {
          batch.DeallocateChunk(slots[slot]);
        }
      }
      if (prepare_failed || !chunks.Commit(std::move(batch)).ok()) {
        return r;
      }
    }
    ++r.completed;
    if (step.checkpoint_after && !chunks.Checkpoint().ok()) {
      return r;
    }
    if (step.clean_after) {
      auto cleaned = chunks.Clean(4);
      if (!cleaned.ok()) {
        return r;
      }
      r.segments_cleaned += *cleaned;
    }
  }
  return r;
}

// Checks that the reopened store's contents equal one of the boundary states
// with index in [min_boundary, max_boundary].
void VerifyBoundary(ChunkStore& chunks, const std::map<int, ChunkId>& slots,
                    const std::vector<Step>& steps, int min_boundary,
                    int max_boundary, const std::string& context) {
  auto states = BoundaryStates(steps);
  for (int boundary = max_boundary; boundary >= min_boundary; --boundary) {
    const auto& expected = states[boundary];
    bool match = true;
    for (const auto& [slot, id] : slots) {
      auto data = chunks.Read(id);
      auto want = expected.find(slot);
      if (want == expected.end()) {
        if (data.ok()) {
          match = false;
          break;
        }
      } else {
        if (!data.ok() || StringFromBytes(*data) != want->second) {
          match = false;
          break;
        }
      }
    }
    if (match) {
      return;
    }
  }
  FAIL() << context << ": recovered state matches no commit boundary in ["
         << min_boundary << ", " << max_boundary << "]";
}

// The recovered store — trusted register/counter included — must be fully
// usable: allocate, commit, read back, checkpoint.
void ProbeUsable(ChunkStore& chunks, const std::string& context) {
  auto pid = chunks.AllocatePartition();
  ASSERT_TRUE(pid.ok()) << context << ": " << pid.status();
  ChunkStore::Batch batch;
  batch.WritePartition(*pid, Params());
  Status commit = chunks.Commit(std::move(batch));
  ASSERT_TRUE(commit.ok()) << context << ": " << commit;
  auto id = chunks.AllocateChunk(*pid);
  ASSERT_TRUE(id.ok()) << context << ": " << id.status();
  Status write = chunks.WriteChunk(*id, BytesFromString("probe"));
  ASSERT_TRUE(write.ok()) << context << ": " << write;
  auto back = chunks.Read(*id);
  ASSERT_TRUE(back.ok()) << context << ": " << back.status();
  EXPECT_EQ(StringFromBytes(*back), "probe") << context;
  Status ckpt = chunks.Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << context << ": " << ckpt;
}

// All the devices of one in-memory run: the raw stores plus their
// crash-point instrumented wrappers sharing one controller.
struct MemEnv {
  MemUntrustedStore mem;
  CrashPointController ctl;
  CrashPointStore store;
  MemSecretStore secret{Bytes(32, 0xA5)};
  MemTamperResistantRegister reg;
  CrashPointRegister creg;
  MemMonotonicCounter counter;
  CrashPointCounter ccounter;

  explicit MemEnv(UntrustedStoreOptions uopts)
      : mem(uopts),
        store(&mem, &ctl),
        creg(&reg, &ctl),
        ccounter(&counter, &ctl) {}

  TrustedServices injected() { return {&secret, &creg, &ccounter}; }
  TrustedServices raw() { return {&secret, &reg, &counter}; }
};

ChunkStoreOptions StoreOptions(ValidationMode mode) {
  ChunkStoreOptions options;
  options.validation.mode = mode;
  return options;
}

// Runs workload/crash/recover/verify for one (k, config) cell. Returns the
// point count observed (for the learning pass).
uint64_t SweepCell(ValidationMode mode, UntrustedStoreOptions uopts,
                   const std::vector<Step>& steps, uint64_t k,
                   const CrashConfig& cfg, RunResult* run_out = nullptr) {
  MemEnv env(uopts);
  ChunkStoreOptions options = StoreOptions(mode);
  env.ctl.Arm(k, cfg.tear);
  std::map<int, ChunkId> slots;
  RunResult run;
  {
    auto cs = ChunkStore::Create(&env.store, env.injected(), options);
    if (cs.ok()) {
      run = RunSteps(**cs, steps, slots);
    }
  }
  uint64_t points = env.ctl.points();
  if (run_out != nullptr) {
    *run_out = run;
  }
  std::string context = std::string(cfg.name) + " k=" + std::to_string(k) +
                        " completed=" + std::to_string(run.completed);
  if (k != CrashPointController::kNeverCrash) {
    EXPECT_TRUE(env.ctl.crashed()) << context << ": crash point never reached";
  }
  if (cfg.drop_unflushed) {
    env.mem.Crash();  // power loss: unflushed writes evaporate
  }
  env.ctl.Disarm();
  auto reopened = ChunkStore::Open(&env.mem, env.raw(), options);
  if (!reopened.ok()) {
    // Acceptable only when the store was never durably formatted — and a
    // half-formatted store must read as absent, never as tampered.
    EXPECT_NE(reopened.status().code(), StatusCode::kTamperDetected)
        << context << ": " << reopened.status();
    EXPECT_FALSE(run.store_created)
        << context << ": formatted store failed to reopen: "
        << reopened.status();
    return points;
  }
  VerifyBoundary(**reopened, slots, steps, run.completed,
                 std::min<int>(run.completed + 1, steps.size()), context);
  ProbeUsable(**reopened, context);
  return points;
}

// Learning pass + full enumeration for one chunk-store workload. The
// learning pass must run every step, and its explicit cleans must free at
// least `min_cleaned` segments.
void SweepChunkWorkload(ValidationMode mode, UntrustedStoreOptions uopts,
                        const std::vector<Step>& steps, const char* name,
                        const CrashConfig* configs, size_t num_configs,
                        size_t min_cleaned = 0) {
  RunResult learned;
  uint64_t total_points =
      SweepCell(mode, uopts, steps, CrashPointController::kNeverCrash,
                kFullMatrix[1], &learned);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_GT(total_points, 10u) << name;
  ASSERT_EQ(learned.completed, static_cast<int>(steps.size()))
      << name << ": the workload stopped without a crash";
  ASSERT_GE(learned.segments_cleaned, min_cleaned)
      << name << ": workload cleaned too few segments";
  ::testing::Test::RecordProperty(std::string("points_") + name,
                                  static_cast<int>(total_points));
  std::printf("[ sweep    ] %s: %llu crash points x %zu configs, %zu segments "
              "cleaned\n",
              name, static_cast<unsigned long long>(total_points), num_configs,
              learned.segments_cleaned);
  for (size_t c = 0; c < num_configs; ++c) {
    for (uint64_t k = 0; k < total_points; ++k) {
      SweepCell(mode, uopts, steps, k, configs[c]);
      ASSERT_FALSE(::testing::Test::HasFatalFailure())
          << name << " config=" << configs[c].name << " k=" << k;
    }
  }
}

class CrashSweepTest : public ::testing::TestWithParam<ValidationMode> {};

INSTANTIATE_TEST_SUITE_P(BothModes, CrashSweepTest,
                         ::testing::Values(ValidationMode::kCounter,
                                           ValidationMode::kDirectHash),
                         [](const auto& info) {
                           return info.param == ValidationMode::kCounter
                                      ? "Counter"
                                      : "DirectHash";
                         });

TEST_P(CrashSweepTest, CommitWorkloadEveryPoint) {
  SweepChunkWorkload(GetParam(),
                     {.segment_size = 16 * 1024, .num_segments = 128},
                     CommitWorkload(), "commit", kFullMatrix, 4);
}

TEST_P(CrashSweepTest, CheckpointWorkloadEveryPoint) {
  SweepChunkWorkload(GetParam(),
                     {.segment_size = 16 * 1024, .num_segments = 128},
                     CheckpointWorkload(), "checkpoint", kFullMatrix, 4);
}

TEST_P(CrashSweepTest, CleanWorkloadEveryPoint) {
  SweepChunkWorkload(GetParam(), {.segment_size = 4096, .num_segments = 64},
                     CleanWorkload(), "clean", kReducedMatrix, 2,
                     /*min_cleaned=*/1);
}

// More segments cleaned than the store holds: cleaned segments were handed
// out again, and recovery meets the stale records of their earlier use.
TEST_P(CrashSweepTest, SegmentReuseWorkloadEveryPoint) {
  SweepChunkWorkload(GetParam(),
                     {.segment_size = 4096, .num_segments = kReuseSegments},
                     ReuseWorkload(), "reuse", kReducedMatrix, 2,
                     /*min_cleaned=*/kReuseSegments + 1);
}

// ---------------------------------------------------------------------------
// Backup workloads.

// An archival sink that exposes every written byte immediately (unlike
// MemArchive, which only publishes at Close) so torn streams are observable.
class CapturingSink final : public ArchivalSink {
 public:
  explicit CapturingSink(Bytes* out) : out_(out) {}
  Status Write(ByteView data) override {
    Append(*out_, data);
    return OkStatus();
  }
  Status Close() override { return OkStatus(); }

 private:
  Bytes* out_;
};

class BytesSource final : public ArchivalSource {
 public:
  explicit BytesSource(Bytes data) : data_(std::move(data)) {}
  Result<Bytes> Read(size_t n) override {
    n = std::min(n, data_.size() - pos_);
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

 private:
  Bytes data_;
  size_t pos_ = 0;
};

std::vector<Step> BackupPopulateWorkload() {
  return {
      {{{0, "a0"}, {1, "b0"}, {2, "c0"}}, false, false},
      {{{0, "a1"}, {3, "d0"}}, true, false},
  };
}

// Populates a store (no injection), then runs CreateBackupSet with the
// controller armed. Crash points cover both the snapshot commit on the chunk
// store and the archival-sink writes.
TEST_P(CrashSweepTest, BackupWriteEveryPoint) {
  const UntrustedStoreOptions uopts{.segment_size = 16 * 1024,
                                    .num_segments = 128};
  const auto steps = BackupPopulateWorkload();
  const auto final_state = BoundaryStates(steps).back();
  ChunkStoreOptions options = StoreOptions(GetParam());

  // Learning pass.
  uint64_t total_points = 0;
  PartitionId learned_pid = 0;
  {
    MemEnv env(uopts);
    auto cs = ChunkStore::Create(&env.store, env.injected(), options);
    ASSERT_TRUE(cs.ok());
    std::map<int, ChunkId> slots;
    RunResult run = RunSteps(**cs, steps, slots);
    ASSERT_EQ(run.completed, static_cast<int>(steps.size()));
    learned_pid = run.pid;
    Bytes stream;
    CapturingSink cap(&stream);
    CrashPointSink sink(&cap, &env.ctl);
    env.ctl.Arm(CrashPointController::kNeverCrash);
    BackupStore backup(cs->get());
    auto created = backup.CreateBackupSet({{run.pid, 0}},
                                          /*set_id=*/777, /*created_unix=*/1,
                                          &sink);
    ASSERT_TRUE(created.ok()) << created.status();
    ASSERT_TRUE(sink.Close().ok());
    total_points = env.ctl.points();
  }
  ASSERT_GT(total_points, 5u);
  ::testing::Test::RecordProperty("points_backup_write",
                                  static_cast<int>(total_points));
  std::printf("[ sweep    ] backup_write: %llu crash points x 4 configs\n",
              static_cast<unsigned long long>(total_points));

  for (const CrashConfig& cfg : kFullMatrix) {
    for (uint64_t k = 0; k < total_points; ++k) {
      std::string context = std::string("backup_write ") + cfg.name +
                            " k=" + std::to_string(k);
      MemEnv env(uopts);
      std::map<int, ChunkId> slots;
      Bytes stream;
      PartitionId pid = learned_pid;
      {
        auto cs = ChunkStore::Create(&env.store, env.injected(), options);
        ASSERT_TRUE(cs.ok()) << context;
        RunResult run = RunSteps(**cs, steps, slots);
        ASSERT_EQ(run.completed, static_cast<int>(steps.size())) << context;
        pid = run.pid;
        CapturingSink cap(&stream);
        CrashPointSink sink(&cap, &env.ctl);
        env.ctl.Arm(k, cfg.tear);
        BackupStore backup(cs->get());
        auto created = backup.CreateBackupSet({{pid, 0}}, 777, 1, &sink);
        Status closed = sink.Close();
        // The backup is acknowledged only when BOTH CreateBackupSet and the
        // sink close succeed. k < N, so the crash must trip in one of them:
        // the last learned point is the caller's Close, which fires after
        // CreateBackupSet has already returned OK.
        EXPECT_FALSE(created.ok() && closed.ok()) << context;
      }
      EXPECT_TRUE(env.ctl.crashed()) << context;
      if (cfg.drop_unflushed) {
        env.mem.Crash();
      }
      env.ctl.Disarm();

      // 1. The source store recovers with every acknowledged commit intact —
      //    a crashed backup never perturbs source data.
      auto reopened = ChunkStore::Open(&env.mem, env.raw(), options);
      ASSERT_TRUE(reopened.ok()) << context << ": " << reopened.status();
      for (const auto& [slot, id] : slots) {
        auto data = (*reopened)->Read(id);
        auto want = final_state.find(slot);
        ASSERT_TRUE(want != final_state.end() && data.ok() &&
                    StringFromBytes(*data) == want->second)
            << context << " slot=" << slot;
      }
      ProbeUsable(**reopened, context);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << context;

      // 2. The torn stream either restores completely (crash landed after
      //    the last stream byte) or fails cleanly — as truncation/corruption,
      //    never a tamper alarm, and never a partial application.
      MemEnv fresh(uopts);
      auto target = ChunkStore::Create(&fresh.mem, fresh.raw(), options);
      ASSERT_TRUE(target.ok()) << context;
      BackupStore restorer(target->get());
      BytesSource source(stream);
      auto restored = restorer.RestoreStream(&source);
      if (restored.ok()) {
        for (const auto& [slot, id] : slots) {
          auto data = (*target)->Read(id);
          auto want = final_state.find(slot);
          ASSERT_TRUE(want != final_state.end() && data.ok() &&
                      StringFromBytes(*data) == want->second)
              << context << " restored slot=" << slot;
        }
      } else {
        EXPECT_NE(restored.status().code(), StatusCode::kTamperDetected)
            << context << ": torn stream must fail as corrupt, not tampered: "
            << restored.status();
        EXPECT_FALSE((*target)->PartitionExists(pid))
            << context << ": failed restore must apply nothing";
      }
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << context;
    }
  }
}

// Crash points inside RestoreStream: the restore commit on the target store.
TEST_P(CrashSweepTest, BackupRestoreEveryPoint) {
  const UntrustedStoreOptions uopts{.segment_size = 16 * 1024,
                                    .num_segments = 128};
  const auto steps = BackupPopulateWorkload();
  const auto final_state = BoundaryStates(steps).back();
  ChunkStoreOptions options = StoreOptions(GetParam());

  // Produce one complete stream.
  Bytes stream;
  std::map<int, ChunkId> slots;
  PartitionId pid = 0;
  {
    MemEnv env(uopts);
    auto cs = ChunkStore::Create(&env.mem, env.raw(), options);
    ASSERT_TRUE(cs.ok());
    RunResult run = RunSteps(**cs, steps, slots);
    ASSERT_EQ(run.completed, static_cast<int>(steps.size()));
    pid = run.pid;
    CapturingSink cap(&stream);
    BackupStore backup(cs->get());
    auto created = backup.CreateBackupSet({{pid, 0}}, 777, 1, &cap);
    ASSERT_TRUE(created.ok()) << created.status();
  }

  // Learning pass: restore into a fresh store with an armed (never-crash)
  // controller to count the restore commit's points.
  uint64_t total_points = 0;
  {
    MemEnv env(uopts);
    auto cs = ChunkStore::Create(&env.store, env.injected(), options);
    ASSERT_TRUE(cs.ok());
    env.ctl.Arm(CrashPointController::kNeverCrash);
    BackupStore restorer(cs->get());
    BytesSource source(stream);
    auto restored = restorer.RestoreStream(&source);
    ASSERT_TRUE(restored.ok()) << restored.status();
    total_points = env.ctl.points();
  }
  ASSERT_GT(total_points, 3u);
  ::testing::Test::RecordProperty("points_backup_restore",
                                  static_cast<int>(total_points));
  std::printf("[ sweep    ] backup_restore: %llu crash points x 4 configs\n",
              static_cast<unsigned long long>(total_points));

  for (const CrashConfig& cfg : kFullMatrix) {
    for (uint64_t k = 0; k < total_points; ++k) {
      std::string context = std::string("backup_restore ") + cfg.name +
                            " k=" + std::to_string(k);
      MemEnv env(uopts);
      bool restore_acked = false;
      {
        auto cs = ChunkStore::Create(&env.store, env.injected(), options);
        ASSERT_TRUE(cs.ok()) << context;
        env.ctl.Arm(k, cfg.tear);
        BackupStore restorer(cs->get());
        BytesSource source(stream);
        restore_acked = restorer.RestoreStream(&source).ok();
      }
      EXPECT_TRUE(env.ctl.crashed()) << context;
      if (cfg.drop_unflushed) {
        env.mem.Crash();
      }
      env.ctl.Disarm();
      auto reopened = ChunkStore::Open(&env.mem, env.raw(), options);
      ASSERT_TRUE(reopened.ok()) << context << ": " << reopened.status();
      // Restore is all-or-nothing; an unacknowledged restore may have become
      // durable just before the crash, but never partially.
      bool applied = (*reopened)->PartitionExists(pid);
      if (restore_acked) {
        EXPECT_TRUE(applied) << context;
      }
      if (applied) {
        for (const auto& [slot, id] : slots) {
          auto data = (*reopened)->Read(id);
          auto want = final_state.find(slot);
          ASSERT_TRUE(want != final_state.end() && data.ok() &&
                      StringFromBytes(*data) == want->second)
              << context << " slot=" << slot;
        }
      } else {
        for (const auto& [slot, id] : slots) {
          EXPECT_FALSE((*reopened)->Read(id).ok())
              << context << ": partial restore visible at slot " << slot;
        }
      }
      ProbeUsable(**reopened, context);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << context;
    }
  }
}

// ---------------------------------------------------------------------------
// XDB WAL commit workload.

struct XdbStep {
  std::map<std::string, std::optional<std::string>> kv;
  bool checkpoint_after = false;
};

std::vector<XdbStep> XdbWorkload() {
  return {
      {{{"k1", "v1"}, {"k2", "v2"}}, false},
      {{{"k1", "v1b"}, {"k3", "v3"}}, true},
      {{{"k2", std::nullopt}, {"k4", "v4"}}, false},
      {{{"k5", "v5"}, {"k3", "v3b"}}, false},
  };
}

std::vector<std::map<std::string, std::string>> XdbBoundaryStates(
    const std::vector<XdbStep>& steps) {
  std::vector<std::map<std::string, std::string>> states;
  std::map<std::string, std::string> state;
  states.push_back(state);
  for (const XdbStep& step : steps) {
    for (const auto& [key, value] : step.kv) {
      if (value.has_value()) {
        state[key] = *value;
      } else {
        state.erase(key);
      }
    }
    states.push_back(state);
  }
  return states;
}

TEST(CrashSweepXdbTest, WalCommitEveryPoint) {
  const auto steps = XdbWorkload();
  const auto states = XdbBoundaryStates(steps);
  std::vector<std::string> all_keys;
  for (const auto& state : states) {
    for (const auto& [key, value] : state) {
      if (std::find(all_keys.begin(), all_keys.end(), key) == all_keys.end()) {
        all_keys.push_back(key);
      }
    }
  }

  auto run_once = [&](CrashPointController& ctl, MemPageFile& data,
                      MemAppendFile& log, bool& create_ok) -> int {
    CrashPointPageFile cdata(&data, &ctl);
    CrashPointAppendFile clog(&log, &ctl);
    create_ok = false;
    auto db = Xdb::Create(&cdata, &clog, {.cache_pages = 8});
    if (!db.ok()) {
      return 0;
    }
    if (!(*db)->CreateTree("t").ok() || !(*db)->Commit().ok()) {
      return 0;
    }
    create_ok = true;
    int completed = 0;
    for (const XdbStep& step : steps) {
      for (const auto& [key, value] : step.kv) {
        Status s = value.has_value()
                       ? (*db)->Put("t", BytesFromString(key),
                                    BytesFromString(*value))
                       : (*db)->Delete("t", BytesFromString(key));
        if (!s.ok()) {
          return completed;
        }
      }
      if (!(*db)->Commit().ok()) {
        return completed;
      }
      ++completed;
      if (step.checkpoint_after && !(*db)->Checkpoint().ok()) {
        return completed;
      }
    }
    return completed;
  };

  // Learning pass.
  uint64_t total_points = 0;
  {
    CrashPointController ctl;
    MemPageFile data(256);
    MemAppendFile log;
    ctl.Arm(CrashPointController::kNeverCrash);
    bool create_ok = false;
    int completed = run_once(ctl, data, log, create_ok);
    ASSERT_TRUE(create_ok);
    ASSERT_EQ(completed, static_cast<int>(steps.size()));
    total_points = ctl.points();
  }
  ASSERT_GT(total_points, 10u);
  ::testing::Test::RecordProperty("points_xdb_wal",
                                  static_cast<int>(total_points));
  std::printf("[ sweep    ] xdb_wal: %llu crash points x 3 tears\n",
              static_cast<unsigned long long>(total_points));

  // MemPageFile/MemAppendFile are write-through (no device cache), so the
  // sweep covers the keep-all-issued semantics at three tear fractions.
  for (double tear : {0.0, 0.5, 1.0}) {
    for (uint64_t k = 0; k < total_points; ++k) {
      std::string context = "xdb tear=" + std::to_string(tear) +
                            " k=" + std::to_string(k);
      CrashPointController ctl;
      MemPageFile data(256);
      MemAppendFile log;
      ctl.Arm(k, tear);
      bool create_ok = false;
      int completed = run_once(ctl, data, log, create_ok);
      EXPECT_TRUE(ctl.crashed()) << context;
      ctl.Disarm();
      if (!create_ok) {
        continue;  // crashed while formatting; nothing was promised yet
      }
      // Reboot: reopen from the raw files; WAL replay must succeed.
      auto db = Xdb::Open(&data, &log, {.cache_pages = 8});
      ASSERT_TRUE(db.ok()) << context << ": " << db.status();
      bool matched = false;
      for (int boundary = std::min<int>(completed + 1, steps.size());
           boundary >= completed && !matched; --boundary) {
        const auto& expected = states[boundary];
        bool match = true;
        for (const auto& key : all_keys) {
          auto got = (*db)->Get("t", BytesFromString(key));
          auto want = expected.find(key);
          if (want == expected.end()) {
            if (got.ok()) {
              match = false;
              break;
            }
          } else {
            if (!got.ok() || StringFromBytes(*got) != want->second) {
              match = false;
              break;
            }
          }
        }
        matched = match;
      }
      ASSERT_TRUE(matched)
          << context << ": recovered XDB state matches no commit boundary in ["
          << completed << ", " << std::min<int>(completed + 1, steps.size())
          << "]";
      // Still usable end to end.
      ASSERT_TRUE(
          (*db)->Put("t", BytesFromString("probe"), BytesFromString("p")).ok())
          << context;
      ASSERT_TRUE((*db)->Commit().ok()) << context;
      auto probe = (*db)->Get("t", BytesFromString("probe"));
      ASSERT_TRUE(probe.ok() && StringFromBytes(*probe) == "p") << context;
    }
  }
}

// ---------------------------------------------------------------------------
// Trusted-register advance, file-backed: tear the in-flight slot file at
// every byte offset. fopen("wb") truncates before writing, so a torn write
// leaves a prefix of the *new* slot; the reader must fall back to the other
// slot (the previous value) and the register must stay writable.

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = ::testing::TempDir() + "/tdb_sweep_" + tag + "_" +
            std::to_string(::getpid());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CrashSweepTrustedTest, FileRegisterTornSlotEveryByte) {
  TempDir dir("reg");
  uint64_t points_swept = 0;
  for (int j = 1; j <= 3; ++j) {
    // Value written by the i-th Write call (1-based).
    auto value = [](int i) { return Bytes(16, static_cast<uint8_t>(0x40 + i)); };
    // Learn the full slot file size for the (j+1)-th write.
    std::string base = dir.path() + "/reg_probe";
    {
      auto reg = FileTamperResistantRegister::Open(base);
      ASSERT_TRUE(reg.ok());
      for (int i = 1; i <= j + 1; ++i) {
        ASSERT_TRUE((*reg)->Write(value(i)).ok());
      }
    }
    int slot = (j + 1) % 2;
    std::string slot_path =
        FileTamperResistantRegister::SlotPathForTesting(base, slot);
    uintmax_t full_size = std::filesystem::file_size(slot_path);
    ASSERT_GT(full_size, 0u);

    for (uintmax_t t = 0; t < full_size; ++t) {
      std::string b = dir.path() + "/reg_j" + std::to_string(j) + "_t" +
                      std::to_string(t);
      {
        auto reg = FileTamperResistantRegister::Open(b);
        ASSERT_TRUE(reg.ok());
        for (int i = 1; i <= j + 1; ++i) {
          ASSERT_TRUE((*reg)->Write(value(i)).ok());
        }
      }
      // Crash mid-write of slot file j+1: only the first t bytes persisted.
      std::filesystem::resize_file(
          FileTamperResistantRegister::SlotPathForTesting(b, slot), t);
      auto reg = FileTamperResistantRegister::Open(b);
      ASSERT_TRUE(reg.ok()) << "j=" << j << " t=" << t;
      auto got = (*reg)->Read();
      ASSERT_TRUE(got.ok()) << "j=" << j << " t=" << t;
      EXPECT_EQ(*got, value(j)) << "torn slot must yield the previous value, "
                                << "j=" << j << " t=" << t;
      // Still writable, and the new value wins.
      ASSERT_TRUE((*reg)->Write(value(9)).ok()) << "j=" << j << " t=" << t;
      auto reg2 = FileTamperResistantRegister::Open(b);
      ASSERT_TRUE(reg2.ok());
      auto got2 = (*reg2)->Read();
      ASSERT_TRUE(got2.ok() && *got2 == value(9)) << "j=" << j << " t=" << t;
      ++points_swept;
    }
  }
  ::testing::Test::RecordProperty("points_register_advance",
                                  static_cast<int>(points_swept));
  std::printf("[ sweep    ] register_advance: %llu torn-byte points\n",
              static_cast<unsigned long long>(points_swept));
}

TEST(CrashSweepTrustedTest, FileCounterTornSlotEveryByte) {
  TempDir dir("ctr");
  // Advance 10, 20, 30; tear the slot file of the final advance at every
  // byte. The counter must read 20 and remain advanceable.
  std::string probe = dir.path() + "/ctr_probe";
  {
    auto ctr = FileMonotonicCounter::Open(probe);
    ASSERT_TRUE(ctr.ok());
    ASSERT_TRUE((*ctr)->AdvanceTo(10).ok());
    ASSERT_TRUE((*ctr)->AdvanceTo(20).ok());
    ASSERT_TRUE((*ctr)->AdvanceTo(30).ok());
  }
  int slot = 3 % 2;
  uintmax_t full_size = std::filesystem::file_size(
      FileTamperResistantRegister::SlotPathForTesting(probe, slot));
  for (uintmax_t t = 0; t < full_size; ++t) {
    std::string b = dir.path() + "/ctr_t" + std::to_string(t);
    {
      auto ctr = FileMonotonicCounter::Open(b);
      ASSERT_TRUE(ctr.ok());
      ASSERT_TRUE((*ctr)->AdvanceTo(10).ok());
      ASSERT_TRUE((*ctr)->AdvanceTo(20).ok());
      ASSERT_TRUE((*ctr)->AdvanceTo(30).ok());
    }
    std::filesystem::resize_file(
        FileTamperResistantRegister::SlotPathForTesting(b, slot), t);
    auto ctr = FileMonotonicCounter::Open(b);
    ASSERT_TRUE(ctr.ok()) << "t=" << t;
    auto got = (*ctr)->Read();
    ASSERT_TRUE(got.ok()) << "t=" << t;
    EXPECT_EQ(*got, 20u) << "t=" << t;
    ASSERT_TRUE((*ctr)->AdvanceTo(40).ok()) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// File-backed chunk store: the same commit workload against
// FileUntrustedStore + FileTamperResistantRegister + FileMonotonicCounter.
// pwrite-based devices are write-through, so this covers the keep-all
// semantics (with and without tearing) against the real file formats —
// including the dual-slot crash-atomic superblock.

TEST_P(CrashSweepTest, FileBackedStoreEveryPoint) {
  const UntrustedStoreOptions uopts{.segment_size = 8 * 1024,
                                    .num_segments = 64};
  const auto steps = CommitWorkload();
  ChunkStoreOptions options = StoreOptions(GetParam());
  TempDir dir(GetParam() == ValidationMode::kCounter ? "filestore_ctr"
                                                     : "filestore_reg");

  auto run_cycle = [&](const std::string& run_dir, uint64_t k, double tear,
                       uint64_t* points_out) {
    std::filesystem::create_directories(run_dir);
    std::string context = "file k=" + std::to_string(k) +
                          " tear=" + std::to_string(tear);
    CrashPointController ctl;
    MemSecretStore secret(Bytes(32, 0xA5));
    std::map<int, ChunkId> slots;
    RunResult run;
    {
      auto file = FileUntrustedStore::Open(run_dir + "/store", uopts);
      ASSERT_TRUE(file.ok()) << context;
      auto freg = FileTamperResistantRegister::Open(run_dir + "/reg");
      ASSERT_TRUE(freg.ok()) << context;
      auto fctr = FileMonotonicCounter::Open(run_dir + "/ctr");
      ASSERT_TRUE(fctr.ok()) << context;
      CrashPointStore store(file->get(), &ctl);
      CrashPointRegister creg(freg->get(), &ctl);
      CrashPointCounter cctr(fctr->get(), &ctl);
      ctl.Arm(k, tear);
      auto cs = ChunkStore::Create(
          &store, TrustedServices{&secret, &creg, &cctr}, options);
      if (cs.ok()) {
        run = RunSteps(**cs, steps, slots);
      }
    }
    if (points_out != nullptr) {
      *points_out = ctl.points();
    }
    if (k != CrashPointController::kNeverCrash) {
      EXPECT_TRUE(ctl.crashed()) << context;
    } else {
      EXPECT_EQ(run.completed, static_cast<int>(steps.size())) << context;
    }
    // Reboot: open everything fresh from the files.
    auto file = FileUntrustedStore::Open(run_dir + "/store", uopts);
    ASSERT_TRUE(file.ok()) << context;
    auto freg = FileTamperResistantRegister::Open(run_dir + "/reg");
    ASSERT_TRUE(freg.ok()) << context;
    auto fctr = FileMonotonicCounter::Open(run_dir + "/ctr");
    ASSERT_TRUE(fctr.ok()) << context;
    TrustedServices raw{&secret, freg->get(), fctr->get()};
    auto reopened = ChunkStore::Open(file->get(), raw, options);
    if (!reopened.ok()) {
      EXPECT_NE(reopened.status().code(), StatusCode::kTamperDetected)
          << context << ": " << reopened.status();
      EXPECT_FALSE(run.store_created)
          << context << ": formatted store failed to reopen: "
          << reopened.status();
      return;
    }
    VerifyBoundary(**reopened, slots, steps, run.completed,
                   std::min<int>(run.completed + 1, steps.size()), context);
    ProbeUsable(**reopened, context);
  };

  uint64_t total_points = 0;
  run_cycle(dir.path() + "/learn", CrashPointController::kNeverCrash, 0.0,
            &total_points);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_GT(total_points, 10u);
  ::testing::Test::RecordProperty("points_file_backed",
                                  static_cast<int>(total_points));
  std::printf("[ sweep    ] file_backed: %llu crash points x 2 tears\n",
              static_cast<unsigned long long>(total_points));

  for (double tear : {0.0, 0.5}) {
    for (uint64_t k = 0; k < total_points; ++k) {
      std::string run_dir = dir.path() + "/t" + std::to_string(tear) + "_k" +
                            std::to_string(k);
      run_cycle(run_dir, k, tear, nullptr);
      ASSERT_FALSE(::testing::Test::HasFatalFailure())
          << "file tear=" << tear << " k=" << k;
      std::filesystem::remove_all(run_dir);
    }
  }
}

}  // namespace
}  // namespace tdb
