// Shared helpers for the benchmark harness: a standard in-memory TDB rig
// configured like the paper's platform (§9.1: counter-based validation,
// delta_ut = 5, untrusted store flushed every commit), wall-clock timing,
// and table formatting.
//
// The paper separates computational overhead from device latency, reporting
// the latter symbolically as l_u (untrusted store) and l_t (tamper-resistant
// store). These benches do the same: they measure computational time on an
// in-memory store, count flushes, and also report a *modelled* total using
// the paper's device constants so shapes are directly comparable.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/chunk/chunk_store.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/percentile.h"
#include "src/obs/snapshot.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"

namespace tdb::bench {

// Paper device model (§9.1, §9.2.1): NTFS-file disk writes 10-20 ms (we use
// 15 ms), tamper-resistant store ≈ EEPROM at 5 ms.
inline constexpr double kModelUntrustedFlushMs = 15.0;
inline constexpr double kModelTrustedWriteMs = 5.0;

// Process-wide bench seed, set with `--seed <n>` (default 42). Benches
// derive every Rng stream from this value (site offsets keep the streams
// distinct) and emitted JSON embeds it, so any run can be reproduced.
inline uint64_t& MutableBenchSeed() {
  static uint64_t seed = 42;
  return seed;
}
inline uint64_t BenchSeed() { return MutableBenchSeed(); }

struct Rig {
  std::unique_ptr<MemUntrustedStore> store;
  std::unique_ptr<MemSecretStore> secret;
  std::unique_ptr<MemTamperResistantRegister> reg;
  std::unique_ptr<MemMonotonicCounter> counter;
  ChunkStoreOptions options;
  std::unique_ptr<ChunkStore> chunks;

  TrustedServices trusted() {
    return TrustedServices{secret.get(), reg.get(), counter.get()};
  }
};

// Builds a fresh store with the paper's §9.1 configuration. A nonzero
// `flush_latency` turns on the store's modelled device latency per Flush —
// for benches whose subject is flush amortization rather than computational
// cost.
inline Rig MakeRig(size_t segment_size = 256 * 1024,
                   uint32_t num_segments = 2048,
                   ValidationMode mode = ValidationMode::kCounter,
                   uint32_t delta_ut = 5,
                   std::chrono::microseconds flush_latency = {}) {
  Rig rig;
  rig.store = std::make_unique<MemUntrustedStore>(
      UntrustedStoreOptions{.segment_size = segment_size,
                            .num_segments = num_segments,
                            .flush_latency = flush_latency});
  rig.secret = std::make_unique<MemSecretStore>(Bytes(32, 0xA5));
  rig.reg = std::make_unique<MemTamperResistantRegister>();
  rig.counter = std::make_unique<MemMonotonicCounter>();
  rig.options.validation.mode = mode;
  rig.options.validation.delta_ut = delta_ut;
  auto cs = ChunkStore::Create(rig.store.get(), rig.trusted(), rig.options);
  if (!cs.ok()) {
    std::fprintf(stderr, "rig creation failed: %s\n",
                 cs.status().ToString().c_str());
    std::abort();
  }
  rig.chunks = std::move(*cs);
  return rig;
}

inline CryptoParams PaperPartitionParams() {
  // Ordinary partitions in the paper: DES-CBC + SHA-1 (§9.2.1).
  return CryptoParams{CipherAlg::kDes, HashAlg::kSha1, Bytes(8, 0x5C)};
}

inline PartitionId MakePartition(ChunkStore& chunks,
                                 CryptoParams params = PaperPartitionParams()) {
  auto pid = chunks.AllocatePartition();
  ChunkStore::Batch batch;
  batch.WritePartition(*pid, std::move(params));
  Status status = chunks.Commit(std::move(batch));
  if (!status.ok()) {
    std::fprintf(stderr, "partition creation failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  return *pid;
}

// Microsecond wall-clock timer.
inline double TimeUs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// Summary statistics delegate to the shared obs helpers (percentile.h) so
// the benches, the YCSB driver, and the registry histograms all agree.
// Benches feed SampleStddev per-repetition means, or per-thread/per-txn
// samples when a configuration is only run once, so emitted stddev_us is
// never a placeholder zero.
inline double Mean(const std::vector<double>& samples) {
  return obs::Mean(samples);
}

inline double SampleStddev(const std::vector<double>& samples) {
  return obs::SampleStddev(samples);
}

// Interpolated quantile (sorts a copy; see obs::SortedQuantile for the
// convention shared with the YCSB LatencySummary).
inline double Quantile(const std::vector<double>& samples, double q) {
  return obs::Quantile(samples, q);
}

// Merged cross-thread snapshot of one named registry histogram (a zero
// snapshot if it was never observed). Benches read their tail latencies
// from these instead of keeping their own sample vectors.
inline obs::MetricsRegistry::HistogramSnapshot RegistryHistogram(
    const std::string& name) {
  for (auto& h : obs::MetricsRegistry::Instance().Histograms()) {
    if (h.name == name) {
      return h;
    }
  }
  return {};
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

// Machine-readable results. Each bench that supports `--json <path>` builds
// one BenchJson, Add()s a record per measured configuration, and writes a
// JSON array on exit. Records carry the operation name, a flat string of
// bench parameters, the mean latency, its standard deviation, and (when the
// operation moves bytes) the implied throughput. The file also embeds the
// unified observability snapshot (obs::SnapshotJson) so metrics ride along
// with timings; pass `--obs` to enable instrumentation for the run
// (benches default to disabled so timings stay comparable with earlier
// baselines).
class BenchJson {
 public:
  // Returns the path following a `--json` flag, or nullptr.
  static const char* PathFromArgs(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        return argv[i + 1];
      }
    }
    return nullptr;
  }

  // True if `--obs` was passed.
  static bool ObsFromArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--obs") == 0) {
        return true;
      }
    }
    return false;
  }

  // Returns the value following a `--seed` flag, or `def`.
  static uint64_t SeedFromArgs(int argc, char** argv, uint64_t def = 42) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--seed") == 0) {
        return std::strtoull(argv[i + 1], nullptr, 10);
      }
    }
    return def;
  }

  // Standard bench prologue: enables the full observability stack when
  // `--obs` was passed, installs `--seed` as the process-wide bench seed,
  // and returns the `--json` path (or nullptr).
  static const char* ParseArgs(int argc, char** argv) {
    if (ObsFromArgs(argc, argv)) {
      obs::EnableAll();
    }
    MutableBenchSeed() = SeedFromArgs(argc, argv);
    return PathFromArgs(argc, argv);
  }

  void Add(std::string op, std::string params, double mean_us,
           double stddev_us, double bytes_per_second = 0.0) {
    records_.push_back(Record{std::move(op), std::move(params), mean_us,
                              stddev_us, bytes_per_second});
  }

  // Writes the collected records; returns false (with a note on stderr) if
  // the file cannot be opened. `bench` names the producing binary.
  bool Write(const char* path, const char* bench) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(BenchSeed()));
    std::fprintf(f, "  \"hardware_concurrency\": %zu,\n",
                 HardwareConcurrency());
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "    {\"op\": \"%s\", \"params\": \"%s\", "
                   "\"mean_us\": %.3f, \"stddev_us\": %.3f, "
                   "\"bytes_per_second\": %.0f}%s\n",
                   r.op.c_str(), r.params.c_str(), r.mean_us, r.stddev_us,
                   r.bytes_per_second, i + 1 < records_.size() ? "," : "");
    }
    // The observability snapshot always rides along; its "enabled" flags
    // record whether instrumentation was on for this run.
    std::string metrics = obs::SnapshotJson();
    while (!metrics.empty() && metrics.back() == '\n') {
      metrics.pop_back();
    }
    std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n", metrics.c_str());
    std::fclose(f);
    std::printf("\nwrote %zu results to %s\n", records_.size(), path);
    return true;
  }

 private:
  struct Record {
    std::string op;
    std::string params;
    double mean_us;
    double stddev_us;
    double bytes_per_second;
  };
  std::vector<Record> records_;
};

}  // namespace tdb::bench

#endif  // BENCH_BENCH_UTIL_H_
