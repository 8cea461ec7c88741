// E10-E13: the high-level comparison of §9.5.
//
//   Figure 10: database operations per 10-op experiment (reads / updates /
//              deletes / adds / commits) for release and bind.
//   Figure 11: runtime comparison, TDB vs XDB-with-crypto-layer, for both
//              experiments. We report measured computational time plus a
//              modelled total that charges the paper's device latencies per
//              flush (l_u = 15 ms untrusted, l_t = 5 ms tamper-resistant),
//              since both systems run on in-memory stores here.
//   Figure 12: TDB module breakdown for the release experiment (mu, sigma,
//              %), with nested-call exclusion like the paper's table.
//   E13:       flush counts (the paper observed 96 untrusted-store flushes
//              and 19 tamper-resistant-store flushes per release experiment
//              with delta_ut = 5).
//
// Both systems use the same cryptographic parameters (DES-CBC + SHA-1 for
// data), the same flush discipline, and literally the same workload logic.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/obs/profiler.h"
#include "src/common/stats.h"
#include "src/workload/tdb_backend.h"
#include "src/workload/vending.h"
#include "src/workload/xdb_backend.h"

namespace tdb::bench {
namespace {

constexpr int kRepetitions = 10;
constexpr int kOpsPerExperiment = 10;

struct ExperimentResult {
  RunningStats total_ms;            // wall computational time per run
  RunningStats modeled_ms;          // + flush count x device model
  WorkloadCounts ops;               // Figure 10 (per experiment)
  double untrusted_flushes = 0;     // mean per run
  double trusted_writes = 0;        // mean per run
  std::map<std::string, RunningStats> module_ms;  // Figure 12
};

ExperimentResult RunTdb(bool bind) {
  ExperimentResult result;
  Rig rig = MakeRig(/*segment_size=*/256 * 1024, /*num_segments=*/4096);
  auto ws = TdbWorkloadStore::Create(rig.chunks.get());
  if (!ws.ok()) {
    std::abort();
  }
  VendingWorkload workload(ws->get(), VendingConfig{});
  if (!workload.Setup().ok()) {
    std::abort();
  }
  for (int rep = 0; rep < kRepetitions; ++rep) {
    (*ws)->ResetCounts();
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Instance();
    metrics.Reset();
    metrics.Enable();
    double us = TimeUs([&] {
      Status status = bind ? workload.RunBindExperiment(kOpsPerExperiment)
                           : workload.RunReleaseExperiment(kOpsPerExperiment);
      if (!status.ok()) {
        std::fprintf(stderr, "experiment failed: %s\n",
                     status.ToString().c_str());
        std::abort();
      }
    });
    metrics.Disable();
    result.total_ms.Add(us / 1000.0);
    uint64_t flushes = metrics.GetCounter("untrusted_store.flushes");
    uint64_t trusted = metrics.GetCounter("tamper_resistant_store.writes");
    result.untrusted_flushes += static_cast<double>(flushes) / kRepetitions;
    result.trusted_writes += static_cast<double>(trusted) / kRepetitions;
    result.modeled_ms.Add(us / 1000.0 + flushes * kModelUntrustedFlushMs +
                          trusted * kModelTrustedWriteMs);
    for (const Profiler::Entry& entry :
         Profiler::Modules(metrics.Histograms())) {
      result.module_ms[entry.module].Add(entry.total_us / 1000.0);
    }
    result.ops = (*ws)->counts();
  }
  return result;
}

ExperimentResult RunXdb(bool bind) {
  ExperimentResult result;
  MemPageFile data(8192);
  MemAppendFile log;
  MemMonotonicCounter counter;
  auto db = Xdb::Create(&data, &log, XdbOptions{.cache_pages = 2048});
  if (!db.ok()) {
    std::abort();
  }
  auto ws = XdbWorkloadStore::Create(db->get(), &counter, /*delta_ut=*/5);
  if (!ws.ok()) {
    std::abort();
  }
  VendingWorkload workload(ws->get(), VendingConfig{});
  if (!workload.Setup().ok()) {
    std::abort();
  }
  for (int rep = 0; rep < kRepetitions; ++rep) {
    (*ws)->ResetCounts();
    uint64_t data_flushes_before = data.flush_count();
    uint64_t log_flushes_before = log.flush_count();
    double us = TimeUs([&] {
      Status status = bind ? workload.RunBindExperiment(kOpsPerExperiment)
                           : workload.RunReleaseExperiment(kOpsPerExperiment);
      if (!status.ok()) {
        std::fprintf(stderr, "xdb experiment failed: %s\n",
                     status.ToString().c_str());
        std::abort();
      }
    });
    // XDB flushes both the log and the data file at commit.
    uint64_t flushes = (data.flush_count() - data_flushes_before) +
                       (log.flush_count() - log_flushes_before);
    uint64_t trusted = (*ws)->counts().commits / 5;  // delta_ut = 5
    result.total_ms.Add(us / 1000.0);
    result.untrusted_flushes += static_cast<double>(flushes) / kRepetitions;
    result.trusted_writes += static_cast<double>(trusted) / kRepetitions;
    result.modeled_ms.Add(us / 1000.0 + flushes * kModelUntrustedFlushMs +
                          trusted * kModelTrustedWriteMs);
    result.ops = (*ws)->counts();
  }
  return result;
}

void PrintFigure10(const ExperimentResult& release,
                   const ExperimentResult& bind) {
  PrintHeader("E10 / Figure 10: database operations per 10-op experiment");
  std::printf("%-10s %8s %8s %8s %8s %8s\n", "", "read", "update", "delete",
              "add", "commit");
  std::printf("%-10s %8llu %8llu %8llu %8llu %8llu\n", "release",
              (unsigned long long)release.ops.reads,
              (unsigned long long)release.ops.updates,
              (unsigned long long)release.ops.deletes,
              (unsigned long long)release.ops.adds,
              (unsigned long long)release.ops.commits);
  std::printf("%-10s %8llu %8llu %8llu %8llu %8llu\n", "bind",
              (unsigned long long)bind.ops.reads,
              (unsigned long long)bind.ops.updates,
              (unsigned long long)bind.ops.deletes,
              (unsigned long long)bind.ops.adds,
              (unsigned long long)bind.ops.commits);
  std::printf("paper:     release 781/181/10/4/10; bind 722/733/10/220/20\n");
}

void PrintFigure11(const ExperimentResult& tdb_release,
                   const ExperimentResult& tdb_bind,
                   const ExperimentResult& xdb_release,
                   const ExperimentResult& xdb_bind) {
  PrintHeader("E11 / Figure 11: runtime comparison (per 10-op experiment)");
  std::printf("%-22s %14s %14s %16s\n", "system/experiment", "compute_ms",
              "sigma", "modeled_total_ms");
  auto row = [](const char* label, const ExperimentResult& r) {
    std::printf("%-22s %14.2f %14.2f %16.1f\n", label, r.total_ms.mean(),
                r.total_ms.stddev(), r.modeled_ms.mean());
  };
  row("TDB release", tdb_release);
  row("XDB release", xdb_release);
  row("TDB bind", tdb_bind);
  row("XDB bind", xdb_bind);
  std::printf(
      "\nmodeled total = compute + untrusted flushes x %.0f ms + "
      "tamper-resistant writes x %.0f ms\n",
      kModelUntrustedFlushMs, kModelTrustedWriteMs);
  std::printf(
      "paper (Figure 11): TDB outperformed XDB on both experiments, "
      "primarily through faster commits.\n");
}

void PrintFigure12(const ExperimentResult& tdb_release) {
  PrintHeader(
      "E12 / Figure 12: TDB runtime analysis, release experiment (module "
      "times exclude nested calls)");
  double compute_total = tdb_release.total_ms.mean();
  double io_untrusted = tdb_release.untrusted_flushes * kModelUntrustedFlushMs;
  double io_trusted = tdb_release.trusted_writes * kModelTrustedWriteMs;
  double total = compute_total + io_untrusted + io_trusted;
  std::printf("%-26s %10s %10s %6s\n", "module", "mu(ms)", "sigma(ms)", "%");
  std::printf("%-26s %10.1f %10.1f %6.0f\n", "DB TOTAL (modeled)", total,
              tdb_release.total_ms.stddev(), 100.0);
  const char* kModules[] = {"collection_store", "object_store", "chunk_store",
                            "encryption", "hashing"};
  for (const char* module : kModules) {
    auto it = tdb_release.module_ms.find(module);
    double mean = it == tdb_release.module_ms.end() ? 0 : it->second.mean();
    double sigma = it == tdb_release.module_ms.end() ? 0 : it->second.stddev();
    std::printf("%-26s %10.2f %10.2f %6.1f\n", module, mean, sigma,
                100.0 * mean / total);
  }
  std::printf("%-26s %10.1f %10s %6.1f  (modeled: %.0f flushes x %.0f ms)\n",
              "untrusted store write", io_untrusted, "-",
              100.0 * io_untrusted / total, tdb_release.untrusted_flushes,
              kModelUntrustedFlushMs);
  std::printf("%-26s %10.1f %10s %6.1f  (modeled: %.0f writes x %.0f ms)\n",
              "tamper-resistant store", io_trusted, "-",
              100.0 * io_trusted / total, tdb_release.trusted_writes,
              kModelTrustedWriteMs);
  std::printf(
      "paper: DB TOTAL 4209 ms; untrusted store write 81%%, "
      "tamper-resistant 5%%, encryption+hashing 6%%\n");
}

void PrintFlushCounts(const ExperimentResult& tdb_release) {
  PrintHeader("E13: store flush accounting, TDB release experiment");
  std::printf("untrusted store flushes per experiment: %.0f (paper: 96)\n",
              tdb_release.untrusted_flushes);
  std::printf(
      "tamper-resistant store writes per experiment: %.0f (paper: 19, "
      "delta_ut = 5)\n",
      tdb_release.trusted_writes);
}

}  // namespace
}  // namespace tdb::bench

int main(int argc, char** argv) {
  using namespace tdb::bench;
  const char* json_path = BenchJson::ParseArgs(argc, argv);
  std::printf("vending benchmark (9.5): %d repetitions of %d operations\n",
              kRepetitions, kOpsPerExperiment);
  ExperimentResult tdb_release = RunTdb(/*bind=*/false);
  ExperimentResult tdb_bind = RunTdb(/*bind=*/true);
  ExperimentResult xdb_release = RunXdb(/*bind=*/false);
  ExperimentResult xdb_bind = RunXdb(/*bind=*/true);
  PrintFigure10(tdb_release, tdb_bind);
  PrintFigure11(tdb_release, tdb_bind, xdb_release, xdb_bind);
  PrintFigure12(tdb_release);
  PrintFlushCounts(tdb_release);

  if (json_path != nullptr) {
    BenchJson json;
    auto add = [&json](const char* op, const char* system,
                       const ExperimentResult& r) {
      char params[128];
      std::snprintf(params, sizeof(params),
                    "system=%s,ops=%d,untrusted_flushes=%.0f,"
                    "trusted_writes=%.0f,modeled_total_ms=%.1f",
                    system, kOpsPerExperiment, r.untrusted_flushes,
                    r.trusted_writes, r.modeled_ms.mean());
      json.Add(op, params, r.total_ms.mean() * 1000.0,
               r.total_ms.stddev() * 1000.0);
    };
    add("vending_release", "tdb", tdb_release);
    add("vending_bind", "tdb", tdb_bind);
    add("vending_release", "xdb", xdb_release);
    add("vending_bind", "xdb", xdb_bind);
    if (!json.Write(json_path, "bench_vending")) {
      return 1;
    }
  }
  return 0;
}
