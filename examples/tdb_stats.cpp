// tdb_stats: drives a representative workload through every layer of the
// stack with the unified observability layer enabled, then reproduces the
// paper's Figure-12-style runtime breakdown, the cleaning overhead u
// (§9.4), and the cache hit ratios from one metrics snapshot.
//
//   tdb_stats [--json <path>]
//   tdb_stats --connect <host:port> [--reset] [--json <path>]
//
// Both modes render one obs::StatsSnapshot with the same printers and
// sections: module breakdown, counters, gauges, derived ratios, partitions
// and latency tails (p50/p95/p99/p999 of every registry histogram). With
// `--connect` no local workload runs: the snapshot is the live server's,
// fetched over the wire (the kStats op), and `--reset` then zeroes the
// server's metrics so the next fetch covers a fresh interval. With `--json`
// the snapshot's obs::ToJson document is also written to <path>.
//
// The local phases:
//
//   1. vending   - the §9.5 vending workload (collection store, object
//                  store, chunk store, crypto) for module attribution
//   2. cleaning  - churn a partition until segments go cold, checkpoint,
//                  and clean them (cleaner + log manager counters)
//   3. paging    - a TrustedPager loop larger than its resident set
//                  (fault / eviction / writeback counters)
//   4. backup    - a full backup set into an in-memory archive
//   5. snapshot  - read-only snapshot transactions over an object store
//                  (sharded-cache and snapshot lifecycle counters)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/backup/backup_store.h"
#include "src/chunk/chunk_store.h"
#include "src/common/rng.h"
#include "src/net/tcp.h"
#include "src/object/object_store.h"
#include "src/obs/snapshot.h"
#include "src/paging/trusted_pager.h"
#include "src/platform/trusted_store.h"
#include "src/server/blob.h"
#include "src/server/client.h"
#include "src/store/untrusted_store.h"
#include "src/workload/tdb_backend.h"
#include "src/workload/vending.h"

using namespace tdb;

namespace {

void Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::abort();
}

void RunVendingPhase(ChunkStore* chunks) {
  auto ws = TdbWorkloadStore::Create(chunks);
  if (!ws.ok()) {
    Fail("workload store", ws.status());
  }
  VendingWorkload workload(ws->get(), VendingConfig{});
  if (Status s = workload.Setup(); !s.ok()) {
    Fail("vending setup", s);
  }
  if (Status s = workload.RunReleaseExperiment(10); !s.ok()) {
    Fail("release experiment", s);
  }
  if (Status s = workload.RunBindExperiment(10); !s.ok()) {
    Fail("bind experiment", s);
  }
}

void RunCleaningPhase(ChunkStore* chunks) {
  auto pid = chunks->AllocatePartition();
  {
    ChunkStore::Batch batch;
    batch.WritePartition(
        *pid, CryptoParams{CipherAlg::kDes, HashAlg::kSha1, Bytes(8, 0x5C)});
    if (Status s = chunks->Commit(std::move(batch)); !s.ok()) {
      Fail("churn partition", s);
    }
  }
  Rng rng(7);
  std::vector<ChunkId> ids;
  for (int i = 0; i < 512; ++i) {
    ids.push_back(*chunks->AllocateChunk(*pid));
  }
  // Several overwrite rounds leave the early segments mostly dead, which is
  // exactly the state the cleaner is for (§4.9.5).
  for (int round = 0; round < 4; ++round) {
    for (size_t base = 0; base < ids.size(); base += 128) {
      ChunkStore::Batch batch;
      for (size_t i = base; i < base + 128 && i < ids.size(); ++i) {
        batch.WriteChunk(ids[i], rng.NextBytes(512));
      }
      if (Status s = chunks->Commit(std::move(batch)); !s.ok()) {
        Fail("churn commit", s);
      }
    }
  }
  if (Status s = chunks->Checkpoint(); !s.ok()) {
    Fail("checkpoint", s);
  }
  auto cleaned = chunks->Clean(/*max_segments=*/16);
  if (!cleaned.ok()) {
    Fail("clean", cleaned.status());
  }
  std::printf("cleaning phase: %zu segments cleaned\n", *cleaned);
}

void RunPagingPhase(ChunkStore* chunks) {
  auto pager = TrustedPager::Create(
      chunks, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 3)},
      TrustedPagerOptions{.page_size = 4096, .resident_pages = 8});
  if (!pager.ok()) {
    Fail("pager", pager.status());
  }
  Rng rng(11);
  // Touch 4x the resident set, twice, so the second pass faults pages back
  // in from the chunk store.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t page = 0; page < 32; ++page) {
      uint64_t address = page * 4096;
      if (Status s = (*pager)->Write(address, rng.NextBytes(256)); !s.ok()) {
        Fail("pager write", s);
      }
      auto read = (*pager)->Read(address, 256);
      if (!read.ok()) {
        Fail("pager read", read.status());
      }
    }
  }
  if (Status s = (*pager)->FlushAll(); !s.ok()) {
    Fail("pager flush", s);
  }
}

void RunBackupPhase(ChunkStore* chunks) {
  auto pid = chunks->AllocatePartition();
  {
    ChunkStore::Batch batch;
    batch.WritePartition(
        *pid, CryptoParams{CipherAlg::kDes, HashAlg::kSha1, Bytes(8, 0x77)});
    if (Status s = chunks->Commit(std::move(batch)); !s.ok()) {
      Fail("backup partition", s);
    }
  }
  Rng rng(17);
  ChunkStore::Batch batch;
  for (int i = 0; i < 256; ++i) {
    batch.WriteChunk(*chunks->AllocateChunk(*pid), rng.NextBytes(512));
  }
  if (Status s = chunks->Commit(std::move(batch)); !s.ok()) {
    Fail("backup data", s);
  }
  BackupStore backup(chunks);
  MemArchive archive;
  auto sink = archive.OpenSink("full");
  auto set = backup.CreateBackupSet({{*pid, 0}}, 1, 0, sink.get());
  if (!set.ok()) {
    Fail("backup set", set.status());
  }
  if (Status s = sink->Close(); !s.ok()) {
    Fail("backup sink", s);
  }
  std::printf("backup phase: %llu chunks, %zu bytes archived\n",
              (unsigned long long)set->chunks_written,
              archive.StreamSize("full"));
}

void RunSnapshotPhase(ChunkStore* chunks) {
  auto pid = chunks->AllocatePartition();
  {
    ChunkStore::Batch batch;
    batch.WritePartition(
        *pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 9)});
    if (Status s = chunks->Commit(std::move(batch)); !s.ok()) {
      Fail("snapshot partition", s);
    }
  }
  TypeRegistry registry;
  if (Status s = RegisterType<server::BlobValue>(registry); !s.ok()) {
    Fail("blob type", s);
  }
  ObjectStore objects(chunks, *pid, &registry);
  std::vector<ObjectId> ids;
  {
    auto txn = objects.Begin();
    for (int i = 0; i < 64; ++i) {
      auto id = txn->Insert(std::make_shared<server::BlobValue>("snap"));
      if (!id.ok()) {
        Fail("snapshot insert", id.status());
      }
      ids.push_back(*id);
    }
    if (Status s = txn->Commit(); !s.ok()) {
      Fail("snapshot load", s);
    }
  }
  // Alternate read-only snapshot rounds with write commits so the phase
  // exercises both snapshot reuse and retire-and-recopy.
  for (int round = 0; round < 4; ++round) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto ro = objects.BeginReadOnly();
      if (!ro.ok()) {
        Fail("begin read-only", ro.status());
      }
      for (const ObjectId& id : ids) {
        if (auto got = (*ro)->Get(id); !got.ok()) {
          Fail("snapshot read", got.status());
        }
      }
      if (Status s = (*ro)->Commit(); !s.ok()) {
        Fail("snapshot commit", s);
      }
    }
    auto txn = objects.Begin();
    if (Status s = txn->Put(ids[0], std::make_shared<server::BlobValue>("v"));
        !s.ok()) {
      Fail("snapshot writer put", s);
    }
    if (Status s = txn->Commit(); !s.ok()) {
      Fail("snapshot writer commit", s);
    }
  }
}

// ---------------------------------------------------------------------------
// One renderer for both modes: every section of one snapshot, taken here or
// fetched from a server, in the same order.

// Figure 12 reports per-module runtime with nested calls excluded; the
// ProfileScope self-time histograms (module.*) do the same exclusion, so
// the table is a direct readout of the snapshot's histograms.
void PrintModules(const obs::StatsSnapshot& s) {
  const std::vector<Profiler::Entry> modules = Profiler::Modules(s.histograms);
  double total_us = 0;
  for (const Profiler::Entry& e : modules) {
    total_us += e.total_us;
  }
  std::printf("\n== Figure-12-style module breakdown ==\n");
  std::printf("%-26s %12s %10s %7s\n", "module", "total_ms", "calls", "%");
  for (const Profiler::Entry& e : modules) {
    std::printf("%-26s %12.2f %10llu %6.1f%%\n", e.module.c_str(),
                e.total_us / 1000.0, (unsigned long long)e.calls,
                total_us > 0 ? 100.0 * e.total_us / total_us : 0.0);
  }
  std::printf("%-26s %12.2f %10s %6.1f%%\n", "TOTAL (instrumented)",
              total_us / 1000.0, "-", 100.0);
}

// A section of named values (counters, gauges or derived ratios), each
// printed with `value_format`.
template <typename V>
void PrintValues(const char* title, const std::map<std::string, V>& values,
                 const char* value_format) {
  std::printf("\n== %s ==\n", title);
  for (const auto& [name, v] : values) {
    std::printf("%-40s ", name.c_str());
    std::printf(value_format, static_cast<double>(v));
    std::printf("\n");
  }
}

// The per-partition table of a sharded server, reassembled from the
// shard.partition.<id>.* gauges the server publishes on every kStats.
void PrintPartitions(const obs::StatsSnapshot& s) {
  struct Row {
    double sessions = 0, commits = 0, state = 0;
  };
  std::map<long, Row> rows;
  const std::string prefix = "shard.partition.";
  for (const auto& [name, v] : s.gauges) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    char* end = nullptr;
    long id = std::strtol(name.c_str() + prefix.size(), &end, 10);
    if (end == nullptr || *end != '.') {
      continue;
    }
    const std::string field = end + 1;
    Row& row = rows[id];
    if (field == "sessions") row.sessions = v;
    else if (field == "commits") row.commits = v;
    else if (field == "state") row.state = v;
  }
  static const char* kStates[] = {"serving", "draining", "moved"};
  std::printf("\n== partitions ==\n");
  std::printf("%-10s %10s %10s %10s\n", "partition", "sessions", "commits",
              "state");
  for (const auto& [id, row] : rows) {
    int state = static_cast<int>(row.state);
    std::printf("%-10ld %10.0f %10.0f %10s\n", id, row.sessions, row.commits,
                state >= 0 && state <= 2 ? kStates[state] : "?");
  }
}

// Latency tails from the registry's bucketed histograms (commit, lock wait,
// group-commit batch/wait, wire ops and stages, ...).
void PrintTails(const obs::StatsSnapshot& s) {
  std::printf("\n== latency tails (us, registry histograms) ==\n");
  std::printf("%-30s %10s %10s %10s %10s %10s %10s\n", "histogram", "count",
              "mean", "p50", "p95", "p99", "p999");
  for (const auto& h : s.histograms) {
    std::printf("%-30s %10llu %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                h.name.c_str(), (unsigned long long)h.count, h.mean(),
                h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99),
                h.Quantile(0.999));
  }
}

// Prints every section of `s`, and writes its JSON to `json_path` when one
// is given. Returns the exit code.
int Report(const obs::StatsSnapshot& s, const char* json_path) {
  PrintModules(s);
  // Among the counters: the device counts the paper's model multiplies into
  // its I/O rows (untrusted_store.flushes, tamper_resistant_store.writes),
  // and a server's thread wake-ups on the wire (wire.session.parks, and
  // wire.client.parks where clients share its process).
  PrintValues("counters", s.counters, "%14.0f");
  PrintValues("gauges", s.gauges, "%14.3f");
  // Cache hit ratios, write amplification, log utilization and the
  // cleaning overhead u = cleaner.bytes_rewritten / log bytes appended.
  PrintValues("derived ratios", s.derived, "%14.4f");
  PrintPartitions(s);
  PrintTails(s);
  if (json_path == nullptr) {
    return 0;
  }
  std::string json = obs::ToJson(s);
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote snapshot to %s\n", json_path);
  return 0;
}

int RunRemote(const char* address, bool reset, const char* json_path) {
  TypeRegistry registry;  // kStats/kStatsReset exchange no typed objects
  net::TcpTransport tcp;
  server::TdbClient client(&registry);
  if (Status s = client.Connect(&tcp, address); !s.ok()) {
    std::fprintf(stderr, "connect to %s failed: %s\n", address,
                 s.ToString().c_str());
    return 1;
  }
  auto snapshot = client.FetchStats();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "stats fetch failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("== tdb_stats: remote snapshot from %s ==\n", address);
  if (int code = Report(*snapshot, json_path); code != 0) {
    return code;
  }
  if (reset) {
    if (Status s = client.ResetStats(); !s.ok()) {
      std::fprintf(stderr, "stats reset failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("\nserver stats reset\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* connect = nullptr;
  bool reset = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[i + 1];
    } else if (std::strcmp(argv[i], "--reset") == 0) {
      reset = true;
    }
  }

  if (connect != nullptr) {
    return RunRemote(connect, reset, json_path);
  }

  obs::EnableAll();

  MemUntrustedStore disk(
      UntrustedStoreOptions{.segment_size = 64 * 1024, .num_segments = 4096});
  MemSecretStore secret(Bytes(32, 0xA5));
  MemMonotonicCounter counter;
  ChunkStoreOptions options;
  options.validation.mode = ValidationMode::kCounter;
  options.validation.delta_ut = 5;
  auto chunks =
      ChunkStore::Create(&disk, TrustedServices{&secret, nullptr, &counter},
                         options);
  if (!chunks.ok()) {
    Fail("chunk store", chunks.status());
  }

  std::printf("== tdb_stats: instrumented whole-stack run ==\n");
  RunVendingPhase(chunks->get());
  RunCleaningPhase(chunks->get());
  RunPagingPhase(chunks->get());
  RunBackupPhase(chunks->get());
  RunSnapshotPhase(chunks->get());
  (void)(*chunks)->GetStats();  // publishes the store gauges
  return Report(obs::TakeSnapshot(/*max_trace_events=*/32), json_path);
}
