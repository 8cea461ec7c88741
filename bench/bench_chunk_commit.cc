// E4 (§9.2.2, "Write chunks + commit"): the paper sweeps commit sets of
// 1-128 chunks of 128 B-16 KB and fits, by linear regression, the model
//
//   latency = 132 us + 36 us/chunk + 0.24 us/byte         (450 MHz P-II)
//
// plus I/O of l_u + l_t/delta_ut + bytes/b_u. This bench reproduces the
// sweep on the in-memory store (computational overhead only, as the paper
// separates), fits the same two-predictor model, and reports flush counts
// so the I/O term can be added symbolically. Crypto runs serially on the
// committing thread, as in the paper's model.
//
// The commits span four orders of magnitude (tens of microseconds to over
// half a second) and their noise grows with them, so each one is weighted
// by 1/latency^2: the fit minimizes relative error, and the small commits,
// which carry the intercept and the per-chunk term, count as much as the
// large ones. Its r^2 is under the same weights.
//
// `--json <path>` additionally writes every measured configuration as JSON.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"

namespace tdb::bench {
namespace {

// One configuration: a fresh store whose `count` chunks of `size` bytes are
// pre-allocated and written once, so checkpoints and cleaning stay out of
// the measurement.
struct Config {
  int count = 0;
  size_t size = 0;
  Rng rng{BenchSeed() + 7};
  Rig rig;
  std::vector<ChunkId> ids;
  RunningStats stats;
};

Config MakeConfig(int count, size_t size) {
  Config c;
  c.count = count;
  c.size = size;
  c.rig = MakeRig(/*segment_size=*/512 * 1024, /*num_segments=*/2048);
  PartitionId partition = MakePartition(*c.rig.chunks);
  ChunkStore::Batch batch;
  for (int i = 0; i < count; ++i) {
    c.ids.push_back(*c.rig.chunks->AllocateChunk(partition));
    batch.WriteChunk(c.ids.back(), c.rng.NextBytes(size));
  }
  (void)c.rig.chunks->Commit(std::move(batch));
  return c;
}

// One timed commit of fresh payloads to every chunk of `c`.
void TimeCommit(Config& c, LinearRegression& regression) {
  std::vector<Bytes> payloads;
  payloads.reserve(c.ids.size());
  for (size_t i = 0; i < c.ids.size(); ++i) {
    payloads.push_back(c.rng.NextBytes(c.size));
  }
  double us = TimeUs([&] {
    ChunkStore::Batch batch;
    for (size_t i = 0; i < c.ids.size(); ++i) {
      batch.WriteChunk(c.ids[i], std::move(payloads[i]));
    }
    Status status = c.rig.chunks->Commit(std::move(batch));
    if (!status.ok()) {
      std::fprintf(stderr, "commit failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  });
  c.stats.Add(us);
  regression.Add(
      {static_cast<double>(c.count), static_cast<double>(c.count) * c.size},
      us, 1.0 / (us * us));
}

int Run(int argc, char** argv) {
  const char* json_path = BenchJson::ParseArgs(argc, argv);
  BenchJson json;

  PrintHeader("E4: write chunks + commit (cost model, cf. paper 9.2.2)");
  std::printf(
      "paper reference: 132 us + 36 us/chunk + 0.24 us/byte (450 MHz "
      "Pentium II)\n\n");
  std::printf("%8s %10s %14s %14s\n", "chunks", "bytes/ch", "commit_us",
              "us/chunk");

  LinearRegression regression(2);
  const int kChunkCounts[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const size_t kChunkSizes[] = {128, 512, 2048, 16384};
  const int kRepetitions = 8;

  std::vector<Config> configs;
  for (size_t size : kChunkSizes) {
    for (int count : kChunkCounts) {
      configs.push_back(MakeConfig(count, size));
    }
  }
  // Repetition r of every configuration runs before repetition r+1 of any,
  // so the host's drift over the run spreads over all of them instead of
  // landing on the configurations timed last.
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (Config& c : configs) {
      TimeCommit(c, regression);
    }
  }
  for (const Config& c : configs) {
    const RunningStats& stats = c.stats;
    std::printf("%8d %10zu %14.1f %14.2f\n", c.count, c.size, stats.mean(),
                stats.mean() / c.count);
    char params[96];
    std::snprintf(params, sizeof(params), "chunks=%d,chunk_bytes=%zu",
                  c.count, c.size);
    json.Add("commit", params, stats.mean(), stats.stddev(),
             1e6 * static_cast<double>(c.count) * c.size / stats.mean());
  }

  std::vector<double> beta = regression.Solve();
  if (beta.size() == 3) {
    std::printf(
        "\nfitted model: %.1f us + %.2f us/chunk + %.4f us/byte   (r^2 = "
        "%.4f)\n",
        beta[0], beta[1], beta[2], regression.RSquared(beta));
  }
  std::printf(
      "I/O term (symbolic, as the paper reports): l_u + l_t/delta_ut + "
      "bytes/b_u per commit;\nwith delta_ut = 5 the untrusted store is "
      "flushed every commit and the counter once per 5 commits.\n");

  if (json_path != nullptr && !json.Write(json_path, "bench_chunk_commit")) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tdb::bench

int main(int argc, char** argv) { return tdb::bench::Run(argc, argv); }
