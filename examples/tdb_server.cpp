// tdb_server: a sharded TDB service over TCP.
//
// Stands up the full trusted-database stack — in-memory untrusted store,
// trusted secret + monotonic counter, chunk store, partition directory —
// and serves it to networked clients (see tdb_cli.cpp) with group commit
// on. Every partition named with --partitions is created (if missing) and
// served by its own engine; their commits merge in the server's one
// group-commit queue. With a single partition, clients that do not name one
// are routed to it. Objects are BlobValue strings; Ctrl-C shuts down
// gracefully.
//
// Usage: tdb_server [ip:port] [--partitions name1,name2,...]
//        (default 127.0.0.1:7478, one partition named "default")

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/net/tcp.h"
#include "src/obs/snapshot.h"
#include "src/server/blob.h"
#include "src/server/server.h"
#include "src/shard/directory.h"

using namespace tdb;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

std::vector<std::string> SplitNames(const char* list) {
  std::vector<std::string> names;
  std::string current;
  for (const char* p = list;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!current.empty()) {
        names.push_back(current);
      }
      current.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      current += *p;
    }
  }
  return names;
}
}  // namespace

int main(int argc, char** argv) {
  const char* address = "127.0.0.1:7478";
  std::vector<std::string> partitions = {"default"};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--partitions") == 0 && i + 1 < argc) {
      partitions = SplitNames(argv[++i]);
    } else {
      address = argv[i];
    }
  }
  if (partitions.empty()) {
    std::printf("--partitions needs at least one name\n");
    return 1;
  }

  // Full observability on: remote clients can pull the module breakdown,
  // derived ratios, per-op tails, and the shard.partition.* gauges with
  // `tdb_stats --connect <addr>`.
  obs::EnableAll();

  MemSecretStore secret(Bytes(32, 0xA5));
  MemMonotonicCounter counter;
  MemUntrustedStore disk({.segment_size = 64 * 1024, .num_segments = 2048});
  ChunkStoreOptions options;
  options.validation.mode = ValidationMode::kCounter;
  auto chunks = ChunkStore::Create(
      &disk, TrustedServices{&secret, nullptr, &counter}, options);
  if (!chunks.ok()) {
    std::printf("chunk store: %s\n", chunks.status().ToString().c_str());
    return 1;
  }

  const CryptoParams tenant_params{CipherAlg::kAes128, HashAlg::kSha256,
                                   Bytes(16, 0x11)};
  auto directory = shard::PartitionDirectory::Open(chunks->get(),
                                                   tenant_params);
  if (!directory.ok()) {
    std::printf("directory: %s\n", directory.status().ToString().c_str());
    return 1;
  }
  for (const std::string& name : partitions) {
    if ((*directory)->Lookup(name).ok()) {
      continue;
    }
    auto created = (*directory)->Create(name, tenant_params);
    if (!created.ok()) {
      std::printf("create partition '%s': %s\n", name.c_str(),
                  created.status().ToString().c_str());
      return 1;
    }
  }

  TypeRegistry registry;
  if (!RegisterType<server::BlobValue>(registry).ok()) {
    return 1;
  }

  net::TcpTransport tcp;
  server::TdbServerOptions server_options;
  // Partitions created over the wire (kPartitionCreate) get this keying.
  server_options.new_partition_params = tenant_params;
  server::TdbServer srv((*chunks).get(), directory->get(), &registry,
                        server_options);
  Status started = srv.Start(&tcp, address);
  if (!started.ok()) {
    std::printf("start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("tdb_server: %s (Ctrl-C to stop)\n", srv.address().c_str());
  for (const shard::PartitionEntry& entry : (*directory)->List()) {
    std::printf("  partition %u '%s'%s%s\n", entry.id, entry.name.c_str(),
                entry.moved ? " moved to " : "",
                entry.moved ? entry.moved_to.c_str() : "");
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("\nshutting down...\n");
  srv.Stop();
  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::Instance();
  std::printf(
      "served %llu sessions, %llu requests (%llu rejected)\n",
      static_cast<unsigned long long>(
          metrics.GetCounter("server.sessions.opened")),
      static_cast<unsigned long long>(metrics.GetCounter("server.requests")),
      static_cast<unsigned long long>(
          metrics.GetCounter("server.sessions.rejected")));
  return 0;
}
