// Ablations of TDB's design choices (DESIGN.md §4):
//
//  A1: direct-hash vs counter-based validation (§4.8.2) — commit cost and
//      tamper-resistant-store write counts.
//  A2: the delta_ut security/performance trade-off (§4.8.2.2) — commit cost
//      with modelled trusted-store latency as the flush lag grows.
//  A3: cleaning cost vs log utilization (§4.9.5, §9.3) — how expensive
//      reclaiming a segment is as the fraction of live data grows.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"

namespace tdb::bench {
namespace {

void AblationValidationModes() {
  PrintHeader("A1: validation mode ablation (direct hash vs counter)");
  std::printf("%-12s %12s %18s\n", "mode", "commit_us", "trusted_writes");
  for (ValidationMode mode :
       {ValidationMode::kDirectHash, ValidationMode::kCounter}) {
    Rig rig = MakeRig(/*segment_size=*/256 * 1024, /*num_segments=*/1024, mode,
                      /*delta_ut=*/5);
    PartitionId partition = MakePartition(*rig.chunks);
    ChunkId id = *rig.chunks->AllocateChunk(partition);
    Rng rng(BenchSeed() + 3);
    (void)rig.chunks->WriteChunk(id, rng.NextBytes(512));
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Instance();
    metrics.Reset();
    metrics.Enable();
    RunningStats stats;
    const int kCommits = 200;
    for (int i = 0; i < kCommits; ++i) {
      Bytes payload = rng.NextBytes(512);
      stats.Add(TimeUs([&] {
        if (!rig.chunks->WriteChunk(id, std::move(payload)).ok()) {
          std::abort();
        }
      }));
    }
    metrics.Disable();
    std::printf("%-12s %12.1f %18llu\n",
                mode == ValidationMode::kDirectHash ? "direct" : "counter",
                stats.mean(),
                (unsigned long long)metrics.GetCounter(
                    "tamper_resistant_store.writes"));
  }
  std::printf(
      "direct mode writes the register every commit; counter mode once per "
      "delta_ut commits\n");
}

void AblationDeltaUt() {
  PrintHeader(
      "A2: delta_ut sweep (counter lag) with modelled trusted-store latency");
  std::printf("%8s %14s %16s %20s\n", "delta_ut", "commit_us",
              "trusted_writes", "modeled_us/commit");
  Rng rng(BenchSeed() + 4);
  const int kCommits = 200;
  for (uint32_t delta_ut : {1u, 2u, 5u, 10u, 20u}) {
    Rig rig = MakeRig(/*segment_size=*/256 * 1024, /*num_segments=*/1024,
                      ValidationMode::kCounter, delta_ut);
    PartitionId partition = MakePartition(*rig.chunks);
    ChunkId id = *rig.chunks->AllocateChunk(partition);
    (void)rig.chunks->WriteChunk(id, rng.NextBytes(512));
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Instance();
    metrics.Reset();
    metrics.Enable();
    RunningStats stats;
    for (int i = 0; i < kCommits; ++i) {
      Bytes payload = rng.NextBytes(512);
      stats.Add(TimeUs([&] {
        (void)rig.chunks->WriteChunk(id, std::move(payload));
      }));
    }
    metrics.Disable();
    uint64_t trusted_writes =
        metrics.GetCounter("tamper_resistant_store.writes");
    double modeled =
        stats.mean() +
        (static_cast<double>(trusted_writes) / kCommits) *
            kModelTrustedWriteMs * 1000.0;
    std::printf("%8u %14.1f %16llu %20.1f\n", delta_ut, stats.mean(),
                (unsigned long long)trusted_writes, modeled);
  }
  std::printf(
      "security cost: an attacker may delete up to delta_ut commit sets from "
      "the log tail undetected\n");
}

void AblationCleaning() {
  PrintHeader("A3: cleaning cost vs segment utilization");
  std::printf("%14s %16s %16s\n", "live_fraction", "clean_us/segment",
              "segments_cleaned");
  for (double live_fraction : {0.1, 0.3, 0.6, 0.9}) {
    Rig rig = MakeRig(/*segment_size=*/64 * 1024, /*num_segments=*/1024);
    PartitionId partition = MakePartition(*rig.chunks);
    Rng rng(BenchSeed() + 5);
    // Write rounds of chunks; overwrite (1 - live_fraction) of them so that
    // roughly live_fraction of each early segment stays live.
    const int kChunks = 600;
    std::vector<ChunkId> ids;
    for (int i = 0; i < kChunks; ++i) {
      ids.push_back(*rig.chunks->AllocateChunk(partition));
    }
    ChunkStore::Batch batch;
    for (ChunkId id : ids) {
      batch.WriteChunk(id, rng.NextBytes(512));
    }
    (void)rig.chunks->Commit(std::move(batch));
    int rewrite = static_cast<int>(kChunks * (1.0 - live_fraction));
    ChunkStore::Batch rewrite_batch;
    for (int i = 0; i < rewrite; ++i) {
      rewrite_batch.WriteChunk(ids[i], rng.NextBytes(512));
    }
    (void)rig.chunks->Commit(std::move(rewrite_batch));
    (void)rig.chunks->Checkpoint();

    size_t cleaned = 0;
    double us = TimeUs([&] {
      auto result = rig.chunks->Clean(8);
      if (result.ok()) {
        cleaned = *result;
      }
    });
    std::printf("%14.1f %16.1f %16zu\n", live_fraction,
                cleaned > 0 ? us / cleaned : 0.0, cleaned);
  }
  std::printf(
      "cleaning a mostly-dead segment is cheap; live data must be "
      "revalidated and rewritten (paper 4.9.5)\n");
}

}  // namespace
}  // namespace tdb::bench

int main(int argc, char** argv) {
  tdb::bench::BenchJson::ParseArgs(argc, argv);  // --seed, --obs
  tdb::bench::AblationValidationModes();
  tdb::bench::AblationDeltaUt();
  tdb::bench::AblationCleaning();
  return 0;
}
