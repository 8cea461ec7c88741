// E15: the YCSB A–F mixes (Cooper et al.) over the full TDB stack, each run
// against both access paths:
//
//  * local — driver threads open ObjectStore transactions in-process;
//  * wire  — driver threads are TdbClients speaking the wire protocol to a
//    TdbServer over the loopback transport (framing, sessions, group commit).
//
// The rig is the paper's §9.1 configuration with a modelled 500 us flush
// (NVMe-class; the paper's 15 ms disk only widens the gaps), group commit
// on, and a dataset larger than the object cache so steady-state reads take
// the chunk read/validate path. Reported per mix×backend: throughput and
// the committed-transaction latency distribution (p50/p95/p99/p999).
//
// Flags: --json <path>, --obs, --seed <n> (embedded in the JSON),
// --ops <n>, --records <n>, --threads <n>, --sweep-only 1 (skip the A-F
// matrix and run just the scaling sweeps).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/loopback.h"
#include "src/server/blob.h"
#include "src/server/server.h"
#include "src/workload/ycsb.h"

namespace tdb::bench {
namespace {

using workload::DriverOptions;
using workload::DriverResult;
using workload::InProcessBackend;
using workload::KeyDistributionName;
using workload::KeyTable;
using workload::WireBackend;
using workload::WorkloadSpec;
using workload::YcsbBackend;
using workload::YcsbDriver;

constexpr std::chrono::microseconds kFlushLatency{500};
constexpr size_t kObjectCacheCapacity = 512;  // < records: reads miss cache

uint64_t FlagU64(int argc, char** argv, const char* flag, uint64_t def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return def;
}

// Registry tails for the run that just finished (the registry is reset at
// the start of each RunOne, so these are per-configuration).
struct RegistryTails {
  obs::MetricsRegistry::HistogramSnapshot txn;     // ycsb.txn_us
  obs::MetricsRegistry::HistogramSnapshot commit;  // ycsb.commit_us
};

DriverResult RunOne(const WorkloadSpec& spec, bool wire, uint64_t ops,
                    int threads, bool snapshot_reads = false,
                    uint64_t ops_per_txn = 1, RegistryTails* tails = nullptr) {
  Rig rig = MakeRig(/*segment_size=*/256 * 1024, /*num_segments=*/2048,
                    ValidationMode::kCounter, /*delta_ut=*/5, kFlushLatency);
  PartitionId partition = MakePartition(*rig.chunks);
  TypeRegistry registry;
  if (!RegisterType<server::BlobValue>(registry).ok()) {
    std::abort();
  }

  DriverOptions options;
  options.operations = ops;
  options.seed = BenchSeed();
  options.snapshot_reads = snapshot_reads;
  options.ops_per_txn = ops_per_txn;
  YcsbDriver driver(spec, options);
  KeyTable table;

  std::unique_ptr<ObjectStore> objects;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<server::TdbServer> server;
  std::vector<std::unique_ptr<YcsbBackend>> backends;

  if (wire) {
    transport = std::make_unique<net::LoopbackTransport>();
    server::TdbServerOptions server_options;
    server_options.group_commit = true;
    server_options.cache_capacity = kObjectCacheCapacity;
    server = std::make_unique<server::TdbServer>(rig.chunks.get(), partition,
                                                 &registry, server_options);
    if (!server->Start(transport.get(), "bench").ok()) {
      std::fprintf(stderr, "server start failed\n");
      std::abort();
    }
    for (int t = 0; t < threads; ++t) {
      auto backend = std::make_unique<WireBackend>(&registry);
      if (!backend->Connect(transport.get(), server->address()).ok()) {
        std::fprintf(stderr, "client connect failed\n");
        std::abort();
      }
      backends.push_back(std::move(backend));
    }
  } else {
    ObjectStoreOptions object_options;
    object_options.group_commit = true;
    object_options.cache_capacity = kObjectCacheCapacity;
    objects = std::make_unique<ObjectStore>(rig.chunks.get(), partition,
                                            &registry, object_options);
    for (int t = 0; t < threads; ++t) {
      backends.push_back(std::make_unique<InProcessBackend>(objects.get()));
    }
  }

  Status loaded = driver.Load(*backends.front(), table);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    std::abort();
  }

  std::vector<YcsbBackend*> ptrs;
  for (auto& b : backends) {
    ptrs.push_back(b.get());
  }
  obs::MetricsRegistry::Instance().Reset();  // per-config registry tails
  DriverResult result = driver.Run(ptrs, table);
  if (!result.status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status.ToString().c_str());
    std::abort();
  }
  if (tails != nullptr) {
    tails->txn = RegistryHistogram("ycsb.txn_us");
    tails->commit = RegistryHistogram("ycsb.commit_us");
  }
  if (server != nullptr) {
    backends.clear();  // disconnect before the server goes down
    server->Stop();
  }
  return result;
}

int Run(int argc, char** argv) {
  const char* json_path = BenchJson::ParseArgs(argc, argv);
  BenchJson json;
  // The registry's ycsb.txn_us/ycsb.commit_us histograms feed the
  // registry-derived tails in the emitted params; profiler/trace stay
  // behind --obs.
  obs::MetricsRegistry::Instance().Enable();

  const uint64_t ops = FlagU64(argc, argv, "--ops", 2500);
  const uint64_t records = FlagU64(argc, argv, "--records", 2000);
  const int threads =
      static_cast<int>(FlagU64(argc, argv, "--threads", 4));
  const bool sweep_only = FlagU64(argc, argv, "--sweep-only", 0) != 0;

  if (!sweep_only) {
    PrintHeader("YCSB A-F, local object store vs wire client/server");
    std::printf("%4s %-8s %-8s %10s %10s %10s %10s %10s %8s\n", "mix", "backend",
                "dist", "ops/s", "p50 us", "p95 us", "p99 us", "p999 us",
                "aborts");

    for (char mix : {'A', 'B', 'C', 'D', 'E', 'F'}) {
      auto spec = WorkloadSpec::StandardMix(mix);
      if (!spec.ok()) {
        std::abort();
      }
      spec->record_count = records;
      for (bool wire : {false, true}) {
        RegistryTails tails;
        DriverResult r = RunOne(*spec, wire, ops, threads,
                                /*snapshot_reads=*/false, /*ops_per_txn=*/1,
                                &tails);
        const char* backend = wire ? "wire" : "local";
        // Tails come from the registry's bucketed ycsb.txn_us histogram —
        // the same numbers a remote tdb_stats would compute — rather than
        // the driver's sample vectors.
        const auto& lat = tails.txn;
        std::printf("%4c %-8s %-8s %10.0f %10.1f %10.1f %10.1f %10.1f %8llu\n",
                    mix, backend, KeyDistributionName(spec->dist),
                    r.ops_per_sec(), lat.Quantile(0.50), lat.Quantile(0.95),
                    lat.Quantile(0.99), lat.Quantile(0.999),
                    static_cast<unsigned long long>(r.txns_aborted));
        char params[256];
        std::snprintf(
            params, sizeof(params),
            "mix=%c,backend=%s,dist=%s,threads=%d,records=%llu,ops=%llu,"
            "ops_per_sec=%.0f,p50_us=%.1f,p95_us=%.1f,p99_us=%.1f,p999_us=%.1f,"
            "commit_p99_us=%.1f,aborts=%llu",
            mix, backend, KeyDistributionName(spec->dist), threads,
            static_cast<unsigned long long>(records),
            static_cast<unsigned long long>(ops), r.ops_per_sec(),
            lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99),
            lat.Quantile(0.999), tails.commit.Quantile(0.99),
            static_cast<unsigned long long>(r.txns_aborted));
        double bytes_per_sec =
            r.wall_us > 0.0
                ? 1e6 * static_cast<double>(r.bytes_read + r.bytes_written) /
                      r.wall_us
                : 0.0;
        json.Add(std::string("ycsb_") + mix, params, r.txn_latency.mean_us,
                 r.txn_latency.stddev_us, bytes_per_sec);
      }
    }
  }

  // Read-mostly client scaling: mix C (pure reads) across client counts,
  // with the classic 2PL path and with lock-free snapshot reads. The spread
  // between the two columns is the cost of shared locks + the single-mutex
  // caches this sweep exists to watch.
  PrintHeader("YCSB C read scaling: clients x snapshot off/on");
  std::printf("%-8s %8s %10s %12s %12s %10s\n", "backend", "clients", "snap",
              "ops/s", "p99 us", "speedup");
  auto spec_c = WorkloadSpec::StandardMix('C');
  if (!spec_c.ok()) {
    std::abort();
  }
  spec_c->record_count = records;
  for (bool wire : {false, true}) {
    for (int clients : {1, 2, 4, 8}) {
      double off_rate = 0.0;
      for (bool snapshot : {false, true}) {
        DriverResult r = RunOne(*spec_c, wire, ops, clients, snapshot);
        if (!snapshot) {
          off_rate = r.ops_per_sec();
        }
        const auto& lat = r.txn_latency;
        std::printf("%-8s %8d %10s %12.0f %12.1f %9.2fx\n",
                    wire ? "wire" : "local", clients, snapshot ? "on" : "off",
                    r.ops_per_sec(), lat.p99_us,
                    off_rate > 0.0 ? r.ops_per_sec() / off_rate : 1.0);
        char params[256];
        std::snprintf(params, sizeof(params),
                      "mix=C,backend=%s,clients=%d,snapshot=%s,records=%llu,"
                      "ops=%llu,ops_per_sec=%.0f,p50_us=%.1f,p99_us=%.1f,"
                      "p999_us=%.1f",
                      wire ? "wire" : "local", clients, snapshot ? "on" : "off",
                      static_cast<unsigned long long>(records),
                      static_cast<unsigned long long>(ops), r.ops_per_sec(),
                      lat.p50_us, lat.p99_us, lat.p999_us);
        double bytes_per_sec =
            r.wall_us > 0.0
                ? 1e6 * static_cast<double>(r.bytes_read + r.bytes_written) /
                      r.wall_us
                : 0.0;
        json.Add("ycsb_scale_C", params, lat.mean_us, lat.stddev_us,
                 bytes_per_sec);
      }
    }
  }

  // Contended read-mostly scaling: mix B (95/5) batched 8 ops per
  // transaction, so most transactions are all-read (eligible for snapshot
  // mode) while updates keep retiring the snapshot and X-locking the zipfian
  // hot keys. With 2PL the readers queue behind those X locks (watch p99 and
  // aborts climb with clients); snapshot readers never touch the lock table
  // and pay instead with periodic partition copies.
  PrintHeader("YCSB B contended scaling (8 ops/txn): clients x snapshot");
  std::printf("%-8s %8s %10s %12s %12s %12s %8s\n", "backend", "clients",
              "snap", "ops/s", "p99 us", "p999 us", "aborts");
  auto spec_b = WorkloadSpec::StandardMix('B');
  if (!spec_b.ok()) {
    std::abort();
  }
  spec_b->record_count = records;
  for (bool wire : {false, true}) {
    for (int clients : {1, 2, 4, 8}) {
      for (bool snapshot : {false, true}) {
        DriverResult r =
            RunOne(*spec_b, wire, ops, clients, snapshot, /*ops_per_txn=*/8);
        const auto& lat = r.txn_latency;
        std::printf("%-8s %8d %10s %12.0f %12.1f %12.1f %8llu\n",
                    wire ? "wire" : "local", clients, snapshot ? "on" : "off",
                    r.ops_per_sec(), lat.p99_us, lat.p999_us,
                    static_cast<unsigned long long>(r.txns_aborted));
        char params[256];
        std::snprintf(params, sizeof(params),
                      "mix=B,backend=%s,clients=%d,snapshot=%s,ops_per_txn=8,"
                      "records=%llu,ops=%llu,ops_per_sec=%.0f,p50_us=%.1f,"
                      "p99_us=%.1f,p999_us=%.1f,aborts=%llu",
                      wire ? "wire" : "local", clients, snapshot ? "on" : "off",
                      static_cast<unsigned long long>(records),
                      static_cast<unsigned long long>(ops), r.ops_per_sec(),
                      lat.p50_us, lat.p99_us, lat.p999_us,
                      static_cast<unsigned long long>(r.txns_aborted));
        double bytes_per_sec =
            r.wall_us > 0.0
                ? 1e6 * static_cast<double>(r.bytes_read + r.bytes_written) /
                      r.wall_us
                : 0.0;
        json.Add("ycsb_contended_B", params, lat.mean_us, lat.stddev_us,
                 bytes_per_sec);
      }
    }
  }

  if (json_path != nullptr && !json.Write(json_path, "bench_ycsb")) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tdb::bench

int main(int argc, char** argv) { return tdb::bench::Run(argc, argv); }
