// Service-layer bench: N client threads drive commit-heavy transactions
// through the full wire path (pickle → frame → session → transaction →
// chunk-store commit) over the loopback transport, with group commit off
// and on. Group commit amortizes the chunk-store commit (log append,
// trusted-counter bump, flush) across concurrent sessions, so throughput
// should scale with clients when it is on and flatten when it is off;
// single-client runs show the price of the extra queue hop.
//
// What group commit amortizes is the per-commit durability barrier, so the
// rig models device latency on Flush (500 us, an NVMe-class device; the
// paper's disk is 15 ms, which would only widen the gap). On a
// zero-latency in-memory store both paths just measure the crypto pipeline
// and the queue hop — run with kFlushLatency = 0 to see that floor.
//
// Each client owns a distinct object, so transactions never conflict and
// lock waits stay out of the measurement. The commit sweeps run every
// configuration for kConfigDuration of wall time, not a fixed number of
// commits, so a row's rate averages over seconds, not over a fraction of
// one.
//
// The metrics registry is always on for this bench: the per-op wire
// histograms (wire.op.commit.us, wire.op.get.us) are where the reported
// tail latencies come from — the registry is reset before each timed
// configuration so its tails are per-config. `--json <path>` writes every
// measured configuration; `--obs` additionally enables the profiler and
// trace journal for the embedded snapshot.
//
// The round-trip sweep drops the modelled flush and runs the same blind
// writes over the loopback and the TCP transport, so what it times is the
// wire path itself: encode, transport, thread wake-ups, handle, and an
// in-memory commit. Its latencies are client-side, and its CPU column is
// the process's user plus system time per commit (polling included).

#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/loopback.h"
#include "src/net/tcp.h"
#include "src/server/blob.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/shard/directory.h"

namespace tdb::bench {
namespace {

using server::BlobValue;
using server::TdbClient;
using server::TdbServer;
using server::TdbServerOptions;

struct RunResult {
  double wall_us = 0.0;
  // User plus system CPU time of the whole process over the timed section.
  double cpu_us = 0.0;
  uint64_t commits = 0;
  // Per-transaction begin..commit latencies, merged across clients.
  std::vector<double> latencies_us;
  // Registry histogram for the run's dominant op (server handle+send time),
  // captured after the timed section; tails are read from its buckets.
  obs::MetricsRegistry::HistogramSnapshot op_hist;

  double commits_per_sec() const { return 1e6 * commits / wall_us; }
  double mean_us() const { return Mean(latencies_us); }
  double stddev_us() const { return SampleStddev(latencies_us); }
};

constexpr std::chrono::microseconds kFlushLatency{500};

// How long each configuration of the commit sweeps runs: clients start
// new transactions until this much wall time has passed since the timed
// section began.
constexpr std::chrono::seconds kConfigDuration{2};

double ProcessCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& t) { return t.tv_sec * 1e6 + t.tv_usec; };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

// `address` is where the server listens on `transport`.
RunResult RunClients(int clients, bool group_commit, net::Transport& transport,
                     const std::string& address,
                     std::chrono::microseconds flush_latency) {
  Rig rig = MakeRig(/*segment_size=*/256 * 1024, /*num_segments=*/2048,
                    ValidationMode::kCounter, /*delta_ut=*/5, flush_latency);
  PartitionId partition = MakePartition(*rig.chunks);
  TypeRegistry registry;
  if (!RegisterType<BlobValue>(registry).ok()) {
    std::abort();
  }

  TdbServerOptions options;
  options.group_commit = group_commit;
  TdbServer server(rig.chunks.get(), partition, &registry, options);
  if (!server.Start(&transport, address).ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::abort();
  }

  // One object per client: commits contend only on the commit path itself.
  std::vector<ObjectId> ids(clients);
  {
    TdbClient setup(&registry);
    (void)setup.Connect(&transport, server.address());
    (void)setup.Begin();
    for (int c = 0; c < clients; ++c) {
      auto id = setup.Insert(BlobValue("seed"));
      if (!id.ok()) {
        std::abort();
      }
      ids[c] = *id;
    }
    if (!setup.Commit().ok()) {
      std::abort();
    }
  }

  RunResult result;
  std::vector<std::vector<double>> per_client(clients);
  obs::MetricsRegistry::Instance().Reset();  // per-config tails
  const double cpu_start_us = ProcessCpuUs();
  const auto deadline = std::chrono::steady_clock::now() + kConfigDuration;
  result.wall_us = TimeUs([&] {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        TdbClient client(&registry);
        if (!client.Connect(&transport, server.address()).ok()) {
          std::abort();
        }
        for (int i = 0; std::chrono::steady_clock::now() < deadline; ++i) {
          double us = TimeUs([&] {
            if (!client.Begin().ok() ||
                !client.Put(ids[c], BlobValue("v" + std::to_string(i))).ok() ||
                !client.Commit().ok()) {
              std::fprintf(stderr, "client %d commit %d failed\n", c, i);
              std::abort();
            }
          });
          per_client[c].push_back(us);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  });
  result.cpu_us = ProcessCpuUs() - cpu_start_us;
  server.Stop();
  result.op_hist = RegistryHistogram("wire.op.commit.us");
  for (auto& samples : per_client) {
    result.latencies_us.insert(result.latencies_us.end(), samples.begin(),
                               samples.end());
  }
  result.commits = result.latencies_us.size();
  return result;
}

// Sharded sweep: `partitions` engines over one chunk store, each driven by
// `clients_per_partition` commit-heavy clients. All engines park their
// commits on the server's one group-commit queue, so commits of different
// partitions merge into a single chunk-store commit and one flush amortizes
// across the whole fleet — aggregate commits/s should grow with partitions
// even though the chunk store serializes commits.
RunResult RunPartitioned(int partitions, int clients_per_partition) {
  Rig rig = MakeRig(/*segment_size=*/256 * 1024, /*num_segments=*/2048,
                    ValidationMode::kCounter, /*delta_ut=*/5, kFlushLatency);
  TypeRegistry registry;
  if (!RegisterType<BlobValue>(registry).ok()) {
    std::abort();
  }
  auto directory = shard::PartitionDirectory::Open(rig.chunks.get(),
                                                   PaperPartitionParams());
  if (!directory.ok()) {
    std::fprintf(stderr, "directory open failed\n");
    std::abort();
  }
  std::vector<PartitionId> pids;
  for (int p = 0; p < partitions; ++p) {
    auto entry =
        (*directory)->Create("p" + std::to_string(p), PaperPartitionParams());
    if (!entry.ok()) {
      std::abort();
    }
    pids.push_back(entry->id);
  }

  net::LoopbackTransport transport;
  TdbServerOptions options;
  options.group_commit = true;
  TdbServer server(rig.chunks.get(), directory->get(), &registry, options);
  if (!server.Start(&transport, "bench").ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::abort();
  }

  // One object per client, each in its client's partition: commits contend
  // only on the commit path.
  const int total_clients = partitions * clients_per_partition;
  std::vector<ObjectId> ids(total_clients);
  {
    TdbClient setup(&registry);
    (void)setup.Connect(&transport, server.address());
    for (int p = 0; p < partitions; ++p) {
      if (!setup.Begin(pids[p]).ok()) {
        std::abort();
      }
      for (int c = 0; c < clients_per_partition; ++c) {
        auto id = setup.Insert(BlobValue("seed"));
        if (!id.ok()) {
          std::abort();
        }
        ids[p * clients_per_partition + c] = *id;
      }
      if (!setup.Commit().ok()) {
        std::abort();
      }
    }
  }

  RunResult result;
  std::vector<std::vector<double>> per_client(total_clients);
  obs::MetricsRegistry::Instance().Reset();  // per-config tails
  const auto deadline = std::chrono::steady_clock::now() + kConfigDuration;
  result.wall_us = TimeUs([&] {
    std::vector<std::thread> threads;
    threads.reserve(total_clients);
    for (int t = 0; t < total_clients; ++t) {
      threads.emplace_back([&, t] {
        const PartitionId pid = pids[t / clients_per_partition];
        TdbClient client(&registry);
        if (!client.Connect(&transport, server.address()).ok()) {
          std::abort();
        }
        for (int i = 0; std::chrono::steady_clock::now() < deadline; ++i) {
          double us = TimeUs([&] {
            if (!client.Begin(pid).ok() ||
                !client.Put(ids[t], BlobValue("v" + std::to_string(i))).ok() ||
                !client.Commit().ok()) {
              std::fprintf(stderr, "client %d commit %d failed\n", t, i);
              std::abort();
            }
          });
          per_client[t].push_back(us);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  });
  server.Stop();
  result.op_hist = RegistryHistogram("wire.op.commit.us");
  for (auto& samples : per_client) {
    result.latencies_us.insert(result.latencies_us.end(), samples.begin(),
                               samples.end());
  }
  result.commits = result.latencies_us.size();
  return result;
}

// Read-mostly sweep: each transaction is a begin, `reads_per_txn` Gets over
// this client's objects, and a commit — with the begin either a classic 2PL
// Begin (shared locks per Get) or a lock-free snapshot BeginReadOnly. The
// spread between the two is the read path's locking + single-mutex-cache
// cost at each client count.
RunResult RunReaders(int clients, bool snapshot, int txns_per_client,
                     int reads_per_txn) {
  Rig rig = MakeRig(/*segment_size=*/256 * 1024, /*num_segments=*/2048,
                    ValidationMode::kCounter, /*delta_ut=*/5, kFlushLatency);
  PartitionId partition = MakePartition(*rig.chunks);
  TypeRegistry registry;
  if (!RegisterType<BlobValue>(registry).ok()) {
    std::abort();
  }

  net::LoopbackTransport transport;
  TdbServerOptions options;
  options.group_commit = true;
  TdbServer server(rig.chunks.get(), partition, &registry, options);
  if (!server.Start(&transport, "bench").ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::abort();
  }

  std::vector<ObjectId> ids(clients);
  {
    TdbClient setup(&registry);
    (void)setup.Connect(&transport, server.address());
    (void)setup.Begin();
    for (int c = 0; c < clients; ++c) {
      auto id = setup.Insert(BlobValue("seed"));
      if (!id.ok()) {
        std::abort();
      }
      ids[c] = *id;
    }
    if (!setup.Commit().ok()) {
      std::abort();
    }
  }

  RunResult result;
  result.commits = static_cast<uint64_t>(clients) * txns_per_client;
  std::vector<std::vector<double>> per_client(clients);
  obs::MetricsRegistry::Instance().Reset();  // per-config tails
  result.wall_us = TimeUs([&] {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        TdbClient client(&registry);
        if (!client.Connect(&transport, server.address()).ok()) {
          std::abort();
        }
        per_client[c].reserve(txns_per_client);
        for (int i = 0; i < txns_per_client; ++i) {
          double us = TimeUs([&] {
            Status begin =
                snapshot ? client.BeginReadOnly() : client.Begin();
            if (!begin.ok()) {
              std::fprintf(stderr, "client %d begin failed\n", c);
              std::abort();
            }
            for (int r = 0; r < reads_per_txn; ++r) {
              if (!client.Get(ids[c]).ok()) {
                std::fprintf(stderr, "client %d read failed\n", c);
                std::abort();
              }
            }
            if (!client.Commit().ok()) {
              std::fprintf(stderr, "client %d commit failed\n", c);
              std::abort();
            }
          });
          per_client[c].push_back(us);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  });
  server.Stop();
  result.op_hist = RegistryHistogram("wire.op.get.us");
  for (auto& samples : per_client) {
    result.latencies_us.insert(result.latencies_us.end(), samples.begin(),
                               samples.end());
  }
  return result;
}

int Run(int argc, char** argv) {
  const char* json_path = BenchJson::ParseArgs(argc, argv);
  BenchJson json;
  // The registry feeds the tail columns below; profiler/trace stay behind
  // --obs.
  obs::MetricsRegistry::Instance().Enable();

  const int kClientCounts[] = {1, 2, 4, 8};

  PrintHeader("server: commit throughput vs clients, group commit off/on");
  std::printf("%8s %8s %14s %14s %10s %10s %10s %12s\n", "clients", "group",
              "commits/s", "mean us/txn", "p50 us", "p99 us", "p999 us",
              "speedup");
  for (int clients : kClientCounts) {
    double off_rate = 0.0;
    for (bool group : {false, true}) {
      net::LoopbackTransport loopback;
      RunResult r =
          RunClients(clients, group, loopback, "bench", kFlushLatency);
      if (!group) {
        off_rate = r.commits_per_sec();
      }
      // Tail columns come from the server's wire.op.commit.us registry
      // histogram, not the client-side sample vector.
      std::printf("%8d %8s %14.0f %14.1f %10.0f %10.0f %10.0f %11.2fx\n",
                  clients, group ? "on" : "off", r.commits_per_sec(),
                  r.mean_us(), r.op_hist.Quantile(0.50),
                  r.op_hist.Quantile(0.99), r.op_hist.Quantile(0.999),
                  r.commits_per_sec() / off_rate);
      char params[192];
      std::snprintf(params, sizeof(params),
                    "clients=%d,group_commit=%s,commits_per_sec=%.0f,"
                    "p50_us=%.0f,p99_us=%.0f,p999_us=%.0f",
                    clients, group ? "on" : "off", r.commits_per_sec(),
                    r.op_hist.Quantile(0.50), r.op_hist.Quantile(0.99),
                    r.op_hist.Quantile(0.999));
      json.Add("server_commit", params, r.mean_us(), r.stddev_us());
    }
  }

  PrintHeader("server: write round trip, no modelled flush, group commit on");
  std::printf("%10s %8s %14s %10s %10s %16s\n", "transport", "clients",
              "commits/s", "p50 us", "p99 us", "cpu us/commit");
  for (bool tcp : {false, true}) {
    for (int clients : {1, 4}) {
      std::unique_ptr<net::Transport> transport;
      if (tcp) {
        transport = std::make_unique<net::TcpTransport>();
      } else {
        transport = std::make_unique<net::LoopbackTransport>();
      }
      RunResult r = RunClients(clients, /*group_commit=*/true, *transport,
                               tcp ? "127.0.0.1:0" : "bench",
                               std::chrono::microseconds(0));
      const char* name = tcp ? "tcp" : "loopback";
      const double p50 = Quantile(r.latencies_us, 0.50);
      const double p99 = Quantile(r.latencies_us, 0.99);
      const double cpu_per_commit = r.cpu_us / r.commits;
      std::printf("%10s %8d %14.0f %10.1f %10.1f %16.1f\n", name, clients,
                  r.commits_per_sec(), p50, p99, cpu_per_commit);
      char params[192];
      std::snprintf(params, sizeof(params),
                    "transport=%s,clients=%d,commits_per_sec=%.0f,"
                    "p50_us=%.1f,p99_us=%.1f,cpu_us_per_commit=%.1f",
                    name, clients, r.commits_per_sec(), p50, p99,
                    cpu_per_commit);
      json.Add("server_round_trip", params, r.mean_us(), r.stddev_us());
    }
  }

  constexpr int kTxnsPerClient = 200;
  constexpr int kReadsPerTxn = 8;
  PrintHeader("server: read-only txns vs clients, snapshot off/on");
  std::printf("%8s %8s %14s %14s %14s %12s\n", "clients", "snap", "reads/s",
              "txns/s", "mean us/txn", "speedup");
  for (int clients : kClientCounts) {
    double off_rate = 0.0;
    for (bool snapshot : {false, true}) {
      RunResult r = RunReaders(clients, snapshot, kTxnsPerClient, kReadsPerTxn);
      if (!snapshot) {
        off_rate = r.commits_per_sec();
      }
      double reads_per_sec = r.commits_per_sec() * kReadsPerTxn;
      std::printf("%8d %8s %14.0f %14.0f %14.1f %11.2fx\n", clients,
                  snapshot ? "on" : "off", reads_per_sec, r.commits_per_sec(),
                  r.mean_us(), r.commits_per_sec() / off_rate);
      char params[224];
      std::snprintf(params, sizeof(params),
                    "clients=%d,snapshot=%s,reads_per_txn=%d,reads_per_sec="
                    "%.0f,txns_per_sec=%.0f,get_p50_us=%.0f,get_p99_us=%.0f,"
                    "get_p999_us=%.0f",
                    clients, snapshot ? "on" : "off", kReadsPerTxn,
                    reads_per_sec, r.commits_per_sec(),
                    r.op_hist.Quantile(0.50), r.op_hist.Quantile(0.99),
                    r.op_hist.Quantile(0.999));
      json.Add("server_read", params, r.mean_us(), r.stddev_us());
    }
  }

  const int kPartitionCounts[] = {1, 2, 4};
  PrintHeader("server: commit throughput vs partitions, 8 clients each");
  std::printf("%10s %8s %14s %14s %10s %10s %10s %12s\n", "partitions",
              "clients", "commits/s", "mean us/txn", "p50 us", "p99 us",
              "p999 us", "speedup");
  double one_partition_rate = 0.0;
  for (int partitions : kPartitionCounts) {
    constexpr int kClientsPerPartition = 8;
    RunResult r = RunPartitioned(partitions, kClientsPerPartition);
    if (partitions == 1) {
      one_partition_rate = r.commits_per_sec();
    }
    std::printf("%10d %8d %14.0f %14.1f %10.0f %10.0f %10.0f %11.2fx\n",
                partitions, partitions * kClientsPerPartition,
                r.commits_per_sec(), r.mean_us(), r.op_hist.Quantile(0.50),
                r.op_hist.Quantile(0.99), r.op_hist.Quantile(0.999),
                r.commits_per_sec() / one_partition_rate);
    char params[224];
    std::snprintf(params, sizeof(params),
                  "partitions=%d,clients_per_partition=%d,total_clients=%d,"
                  "commits_per_sec=%.0f,p50_us=%.0f,p99_us=%.0f,p999_us=%.0f,"
                  "speedup_vs_1p=%.2f",
                  partitions, kClientsPerPartition,
                  partitions * kClientsPerPartition, r.commits_per_sec(),
                  r.op_hist.Quantile(0.50), r.op_hist.Quantile(0.99),
                  r.op_hist.Quantile(0.999),
                  r.commits_per_sec() / one_partition_rate);
    json.Add("server_commit_partitioned", params, r.mean_us(), r.stddev_us());
  }

  // Honesty rows: same 8 clients total, split across partitions — shows how
  // much of the scaling above is extra offered load vs genuine sharding win.
  PrintHeader("server: commit throughput vs partitions, 8 clients total");
  std::printf("%10s %8s %14s %14s %12s\n", "partitions", "clients",
              "commits/s", "mean us/txn", "speedup");
  double fixed_base_rate = 0.0;
  for (int partitions : kPartitionCounts) {
    const int clients_per_partition = 8 / partitions;
    RunResult r = RunPartitioned(partitions, clients_per_partition);
    if (partitions == 1) {
      fixed_base_rate = r.commits_per_sec();
    }
    std::printf("%10d %8d %14.0f %14.1f %11.2fx\n", partitions, 8,
                r.commits_per_sec(), r.mean_us(),
                r.commits_per_sec() / fixed_base_rate);
    char params[224];
    std::snprintf(params, sizeof(params),
                  "partitions=%d,clients_per_partition=%d,total_clients=8,"
                  "commits_per_sec=%.0f,p50_us=%.0f,p99_us=%.0f,p999_us=%.0f,"
                  "speedup_vs_1p=%.2f",
                  partitions, clients_per_partition, r.commits_per_sec(),
                  r.op_hist.Quantile(0.50), r.op_hist.Quantile(0.99),
                  r.op_hist.Quantile(0.999),
                  r.commits_per_sec() / fixed_base_rate);
    json.Add("server_commit_partitioned_fixed", params, r.mean_us(),
             r.stddev_us());
  }

  if (json_path != nullptr && !json.Write(json_path, "bench_server")) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tdb::bench

int main(int argc, char** argv) { return tdb::bench::Run(argc, argv); }
