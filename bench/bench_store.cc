// E2 (§9.2.1): raw store operations. The paper measures l_u (untrusted
// store flush latency, 10-40 ms on its NTFS disks), l_t (tamper-resistant
// store write, ~5 ms EEPROM), and b_u (store bandwidth, 3.5-4.7 MB/s). We
// time the in-memory store (computational floor), the file-backed store
// with fdatasync (a real l_u on this machine), and trusted-store writes.
//
// Each row times kRepetitions rounds of a fixed number of calls and reports
// the mean per call, with its spread across rounds. `--json <path>` writes
// one record per row.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"

namespace tdb::bench {
namespace {

constexpr int kRepetitions = 10;

// Times kRepetitions rounds of `iterations` calls of `op`, running
// `between` untimed after each round, and prints one row and adds one JSON
// record of the mean per call. `bytes` moved per call gives the bandwidth
// column (0 leaves it out).
template <typename Op>
void Measure(BenchJson& json, const char* name, size_t bytes, int iterations,
             Op op, const std::function<void()>& between = [] {}) {
  op();  // warm up
  RunningStats stats;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    stats.Add(TimeUs([&] {
                for (int i = 0; i < iterations; ++i) {
                  op();
                }
              }) /
              iterations);
    between();
  }
  const double bytes_per_second =
      bytes > 0 ? 1e6 * static_cast<double>(bytes) / stats.mean() : 0.0;
  std::printf("%-26s %8zu %12.3f %10.3f %12.1f\n", name, bytes, stats.mean(),
              stats.stddev(), bytes_per_second / 1e6);
  char params[64];
  std::snprintf(params, sizeof(params), "bytes=%zu iterations=%d", bytes,
                iterations);
  json.Add(name, params, stats.mean(), stats.stddev(), bytes_per_second);
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Writes of `bytes` into one segment, wrapping at its end. The store keeps
// the bytes each unflushed write overwrote (for Crash), so an untimed flush
// after each round bounds that log; the call counts keep it under 16 MiB.
void MemStoreWrite(BenchJson& json, size_t bytes, int iterations) {
  MemUntrustedStore store({.segment_size = 256 * 1024, .num_segments = 64});
  Rng rng(BenchSeed() + 1);
  Bytes data = rng.NextBytes(bytes);
  uint32_t offset = 0;
  Measure(
      json, "mem_store_write", bytes, iterations,
      [&] {
        if (offset + data.size() > store.segment_size()) {
          offset = 0;
        }
        (void)store.Write(0, offset, data);
        offset += static_cast<uint32_t>(data.size());
      },
      [&] { (void)store.Flush(); });
}

void MemStoreRead(BenchJson& json, size_t bytes, int iterations) {
  MemUntrustedStore store({.segment_size = 256 * 1024, .num_segments = 64});
  (void)store.Write(0, 0, Bytes(store.segment_size(), 0x5A));
  Measure(json, "mem_store_read", bytes, iterations,
          [&] { (void)store.Read(0, 0, bytes); });
}

// One write and one fdatasync per call: l_u on this machine.
void FileStoreWriteAndFlush(BenchJson& json, size_t bytes, int iterations) {
  const std::string path = TempPath("tdb_bench_store.bin");
  auto store = FileUntrustedStore::Open(
      path, {.segment_size = 256 * 1024, .num_segments = 16});
  if (!store.ok()) {
    std::printf("%-26s cannot open file store: %s\n", "file_store_write_flush",
                store.status().ToString().c_str());
    return;
  }
  Rng rng(BenchSeed() + 1);
  Bytes data = rng.NextBytes(bytes);
  uint32_t offset = 0;
  Measure(json, "file_store_write_flush", bytes, iterations, [&] {
    if (offset + data.size() > (*store)->segment_size()) {
      offset = 0;
    }
    (void)(*store)->Write(0, offset, data);
    (void)(*store)->Flush();
    offset += static_cast<uint32_t>(data.size());
  });
  store->reset();
  std::remove(path.c_str());
}

int Run(int argc, char** argv) {
  const char* json_path = BenchJson::ParseArgs(argc, argv);
  BenchJson json;
  PrintHeader("E2: store operations (cf. paper 9.2.1)");
  std::printf("%-26s %8s %12s %10s %12s\n", "op", "bytes", "us/call",
              "stddev", "MB/s");

  MemStoreWrite(json, 512, 20000);
  MemStoreWrite(json, 4096, 4000);
  MemStoreWrite(json, 65536, 250);
  MemStoreRead(json, 512, 20000);
  MemStoreRead(json, 65536, 250);
  FileStoreWriteAndFlush(json, 512, 100);
  FileStoreWriteAndFlush(json, 65536, 100);

  MemTamperResistantRegister mem_register;
  const Bytes value(40, 0x7);
  Measure(json, "mem_register_write", 0, 20000,
          [&] { (void)mem_register.Write(value); });

  // Two-slot atomic register: each write fsyncs a slot file and its
  // directory. This is l_t on this machine.
  const std::string register_path = TempPath("tdb_bench_reg");
  auto file_register = FileTamperResistantRegister::Open(register_path);
  if (file_register.ok()) {
    Measure(json, "file_register_write", 0, 50,
            [&] { (void)(*file_register)->Write(value); });
    for (int slot = 0; slot < 2; ++slot) {
      std::remove(
          FileTamperResistantRegister::SlotPathForTesting(register_path, slot)
              .c_str());
    }
  } else {
    std::printf("%-26s cannot open file register: %s\n", "file_register_write",
                file_register.status().ToString().c_str());
  }

  MemMonotonicCounter counter;
  uint64_t next = 1;
  Measure(json, "mem_counter_advance", 0, 20000,
          [&] { (void)counter.AdvanceTo(next++); });

  if (json_path != nullptr && !json.Write(json_path, "bench_store")) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tdb::bench

int main(int argc, char** argv) { return tdb::bench::Run(argc, argv); }
