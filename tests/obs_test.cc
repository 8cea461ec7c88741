// The unified observability layer (src/obs): metrics registry semantics
// (per-thread sharding, merged snapshots), trace-journal ring behavior,
// snapshot-JSON structure, and the disabled-path overhead contract — one
// relaxed atomic load per instrumentation site when observability is off.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/backup/backup_store.h"
#include "src/object/object_store.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/paging/trusted_pager.h"
#include "src/platform/trusted_store.h"
#include "src/server/blob.h"
#include "src/store/archival_store.h"
#include "src/store/untrusted_store.h"
#include "src/xdb/pager.h"
#include "tests/metrics_test_util.h"

namespace tdb::obs {
namespace {

// The registry and journal are process singletons; every test starts from a
// known state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetAll();
    EnableAll();
    TraceJournal::Instance().SetCapacity(4096);
  }
  void TearDown() override {
    DisableAll();
    ResetAll();
  }
};

TEST_F(ObsTest, CountersMergeAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        Count("test.merged");
      }
      Count("test.bulk", 100);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  MetricsRegistry& m = MetricsRegistry::Instance();
  EXPECT_EQ(m.GetCounter("test.merged"),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(m.GetCounter("test.bulk"), static_cast<uint64_t>(kThreads) * 100);
  EXPECT_EQ(m.GetCounter("test.absent"), 0u);
  auto all = m.Counters();
  EXPECT_EQ(all.at("test.merged"),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST_F(ObsTest, HistogramsMergeAcrossThreads) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      // Thread t observes t*100 + {1, 2, 3}.
      for (int i = 1; i <= 3; ++i) {
        Observe("test.hist", t * 100.0 + i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  bool found = false;
  for (const auto& h : MetricsRegistry::Instance().Histograms()) {
    if (h.name != "test.hist") continue;
    found = true;
    EXPECT_EQ(h.count, static_cast<uint64_t>(kThreads) * 3);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, (kThreads - 1) * 100.0 + 3);
    double expected_sum = 0;
    for (int t = 0; t < kThreads; ++t) {
      expected_sum += 3 * t * 100.0 + 6;
    }
    EXPECT_DOUBLE_EQ(h.sum, expected_sum);
    EXPECT_DOUBLE_EQ(h.mean(), expected_sum / (kThreads * 3));
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, GaugesAreLastWriterWins) {
  SetGauge("test.gauge", 1.0);
  SetGauge("test.gauge", 42.5);
  EXPECT_DOUBLE_EQ(MetricsRegistry::Instance().Gauges().at("test.gauge"),
                   42.5);
}

TEST_F(ObsTest, DisabledSitesRecordNothing) {
  DisableAll();
  Count("test.off");
  Observe("test.off_hist", 1.0);
  SetGauge("test.off_gauge", 1.0);
  TraceEmit(TraceKind::kCommit, "test");
  {
    LatencyTimer timer("test.off_latency");
    ProfileScope scope("module.test_off");
  }
  EXPECT_EQ(MetricsRegistry::Instance().GetCounter("test.off"), 0u);
  EXPECT_TRUE(MetricsRegistry::Instance().Gauges().empty());
  EXPECT_TRUE(MetricsRegistry::Instance().Histograms().empty());
  EXPECT_EQ(TraceJournal::Instance().TotalEmitted(), 0u);
}

TEST_F(ObsTest, ResetClearsEverything) {
  Count("test.c");
  SetGauge("test.g", 1.0);
  Observe("test.h", 1.0);
  TraceEmit(TraceKind::kCommit, "test");
  ResetAll();
  EXPECT_EQ(MetricsRegistry::Instance().GetCounter("test.c"), 0u);
  EXPECT_TRUE(MetricsRegistry::Instance().Gauges().empty());
  EXPECT_TRUE(MetricsRegistry::Instance().Histograms().empty());
  EXPECT_EQ(TraceJournal::Instance().TotalEmitted(), 0u);
  EXPECT_TRUE(TraceJournal::Instance().Snapshot().empty());
}

TEST_F(ObsTest, LatencyTimerObservesWhenEnabled) {
  {
    LatencyTimer timer("test.latency_us");
  }
  auto hists = MetricsRegistry::Instance().Histograms();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "test.latency_us");
  EXPECT_EQ(hists[0].count, 1u);
  EXPECT_GE(hists[0].sum, 0.0);
}

TEST_F(ObsTest, TraceRingWrapKeepsExactCountsAndNewestEvents) {
  TraceJournal& j = TraceJournal::Instance();
  j.SetCapacity(8);
  EXPECT_EQ(j.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    TraceEmit(TraceKind::kCacheHit, "test", i);
  }
  TraceEmit(TraceKind::kCommit, "test", 99);

  // Totals are exact even though the ring only holds the last 8 events.
  EXPECT_EQ(j.CountOf(TraceKind::kCacheHit), 20u);
  EXPECT_EQ(j.CountOf(TraceKind::kCommit), 1u);
  EXPECT_EQ(j.TotalEmitted(), 21u);

  std::vector<TraceEvent> events = j.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first, contiguous sequence numbers ending at the newest event.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 13 + i);
  }
  EXPECT_EQ(events.back().kind, TraceKind::kCommit);
  EXPECT_EQ(events.back().a, 99u);
}

TEST_F(ObsTest, TraceEventsCarryOperandsAndDetail) {
  TraceEmit(TraceKind::kTamperDetected, "tamper", 3, 7, "leader hash mismatch");
  std::vector<TraceEvent> events = TraceJournal::Instance().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceKind::kTamperDetected);
  EXPECT_STREQ(events[0].module, "tamper");
  EXPECT_EQ(events[0].a, 3u);
  EXPECT_EQ(events[0].b, 7u);
  EXPECT_EQ(events[0].detail, "leader hash mismatch");
  EXPECT_STREQ(TraceKindName(events[0].kind), "tamper_detected");
}

// The hand-off trace kinds and the per-partition gauges are the sharded
// service's dashboard schema: tdb_stats keys off these exact names, so they
// must resolve and survive a SnapshotJson round trip.
TEST_F(ObsTest, PartitionHandoffSchemaAppearsInSnapshotJson) {
  EXPECT_STREQ(TraceKindName(TraceKind::kPartitionHandoffBegin),
               "partition_handoff_begin");
  EXPECT_STREQ(TraceKindName(TraceKind::kPartitionHandoffCutover),
               "partition_handoff_cutover");
  EXPECT_STREQ(TraceKindName(TraceKind::kPartitionHandoffComplete),
               "partition_handoff_complete");

  TraceEmit(TraceKind::kPartitionHandoffBegin, "shard", 2, 5);
  TraceEmit(TraceKind::kPartitionHandoffCutover, "shard", 2, 6, "node-b");
  TraceEmit(TraceKind::kPartitionHandoffComplete, "shard", 2, 0, "node-b");
  // The gauge names the server publishes per served partition.
  SetGauge("shard.partitions", 2);
  SetGauge("shard.partition.2.sessions", 3);
  SetGauge("shard.partition.2.commits", 41);
  SetGauge("shard.partition.2.state", 0);

  std::string json = SnapshotJson();
  for (const char* key :
       {"\"partition_handoff_begin\"", "\"partition_handoff_cutover\"",
        "\"partition_handoff_complete\"", "\"shard.partitions\"",
        "\"shard.partition.2.sessions\"", "\"shard.partition.2.commits\"",
        "\"shard.partition.2.state\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// Structural well-formedness: balanced braces/brackets outside strings and
// valid string/escape nesting. Not a full JSON parser, but catches every
// quoting or nesting bug a formatter can make.
bool JsonWellFormed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escape = false;
  for (char c : s) {
    if (in_string) {
      if (escape) {
        escape = false;
      } else if (c == '\\') {
        escape = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && !escape && stack.empty();
}

TEST_F(ObsTest, SnapshotJsonIsWellFormedAndCarriesTheSchema) {
  Count("test.snapshot_counter", 5);
  SetGauge("test.snapshot_gauge", 2.5);
  Observe("test.snapshot_hist", 10.0);
  TraceEmit(TraceKind::kCommit, "test", 1, 2);
  Observe("module.test_module", 123.0);

  std::string json = SnapshotJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  for (const char* key :
       {"\"enabled\"", "\"modules\"", "\"counters\"", "\"gauges\"",
        "\"histograms\"", "\"derived\"", "\"trace\"", "\"capacity\"",
        "\"total_emitted\"", "\"counts\"", "\"events\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"test.snapshot_counter\": 5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"module\": \"test_module\", \"total_us\": 123.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"commit\""), std::string::npos);
}

TEST_F(ObsTest, SnapshotJsonEscapesDetailStrings) {
  TraceEmit(TraceKind::kTamperDetected, "tamper", 0, 0,
            "quote \" backslash \\ newline \n done");
  std::string json = SnapshotJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n done"),
            std::string::npos)
      << json;
}

// The read-path schema: a real store driven through a snapshot read must
// emit the sharded-cache counters and the snapshot gauges, and they must
// ride along in SnapshotJson for dashboards (tdb_stats) to pick up.
TEST_F(ObsTest, ReadPathCountersAppearInSnapshotJson) {
  MemUntrustedStore store({.segment_size = 16384, .num_segments = 256});
  MemSecretStore secret(Bytes(32, 0xA5));
  MemMonotonicCounter counter;
  ChunkStoreOptions options;
  options.validation.mode = ValidationMode::kCounter;
  auto cs = ChunkStore::Create(
      &store, TrustedServices{&secret, nullptr, &counter}, options);
  ASSERT_TRUE(cs.ok());
  TypeRegistry registry;
  ASSERT_TRUE(RegisterType<server::BlobValue>(registry).ok());
  auto pid = (*cs)->AllocatePartition();
  ChunkStore::Batch batch;
  batch.WritePartition(
      *pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)});
  ASSERT_TRUE((*cs)->Commit(std::move(batch)).ok());
  ObjectStore objects(cs->get(), *pid, &registry);

  auto txn = objects.Begin();
  auto id = txn->Insert(std::make_shared<server::BlobValue>("obs"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(txn->Commit().ok());

  auto ro = objects.BeginReadOnly();
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE((*ro)->Get(*id).ok());
  ASSERT_TRUE((*ro)->Get(*id).ok());  // repeat: sharded-cache hit
  ASSERT_TRUE((*ro)->Commit().ok());
  // Repeat chunk reads below the object cache: the second is a
  // validated-chunk-cache hit (ObjectId is a ChunkId).
  ASSERT_TRUE((*cs)->Read(*id).ok());
  ASSERT_TRUE((*cs)->Read(*id).ok());
  (void)(*cs)->GetStats();  // refreshes the size gauges

  MetricsRegistry& m = MetricsRegistry::Instance();
  EXPECT_GT(m.GetCounter("cache.shard_hits"), 0u);
  EXPECT_GT(m.GetCounter("cache.shard_misses"), 0u);
  EXPECT_GT(m.GetCounter("snapshot.created"), 0u);
  EXPECT_EQ(m.Gauges().at("snapshot.pins"), 0.0);  // reader drained

  std::string json = SnapshotJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  for (const char* key :
       {"\"cache.shard_hits\"", "\"cache.shard_misses\"", "\"cache.shards\"",
        "\"object.cache_hits\"", "\"chunk.vcache_hits\"",
        "\"chunk.vcache_size\"", "\"snapshot.pins\"", "\"snapshot.created\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// The Figure-12 table is the module.* histograms, named without the
// prefix, largest total first; other histograms are not modules.
TEST_F(ObsTest, ModulesAreTheModuleHistogramsLargestFirst) {
  Observe("module.small", 2.0);
  Observe("module.large", 30.0);
  Observe("module.large", 40.0);
  Observe("wire.stage.handle_us", 500.0);
  std::vector<Profiler::Entry> modules =
      Profiler::Modules(MetricsRegistry::Instance().Histograms());
  ASSERT_EQ(modules.size(), 2u);
  EXPECT_EQ(modules[0].module, "large");
  EXPECT_DOUBLE_EQ(modules[0].total_us, 70.0);
  EXPECT_EQ(modules[0].calls, 2u);
  EXPECT_EQ(modules[1].module, "small");
  EXPECT_EQ(modules[1].calls, 1u);
}

// The name rule of the server's snapshot (server_test
// EveryMetricNameHasOneKindAndTheDottedForm), over the names only other
// workloads publish: chunk store, object store with a snapshot read,
// backup and restore, trusted paging and the XDB page cache.
TEST_F(ObsTest, EveryMetricNameInTheTreeHasOneKindAndTheDottedForm) {
  MemUntrustedStore store({.segment_size = 16384, .num_segments = 256});
  MemSecretStore secret(Bytes(32, 0xA5));
  MemMonotonicCounter counter;
  ChunkStoreOptions options;
  options.validation.mode = ValidationMode::kCounter;
  auto cs = ChunkStore::Create(
      &store, TrustedServices{&secret, nullptr, &counter}, options);
  ASSERT_TRUE(cs.ok());
  TypeRegistry registry;
  ASSERT_TRUE(RegisterType<server::BlobValue>(registry).ok());
  auto pid = (*cs)->AllocatePartition();
  ChunkStore::Batch batch;
  batch.WritePartition(
      *pid, CryptoParams{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)});
  ASSERT_TRUE((*cs)->Commit(std::move(batch)).ok());

  ObjectStore objects(cs->get(), *pid, &registry);
  auto txn = objects.Begin();
  auto id = txn->Insert(std::make_shared<server::BlobValue>("named"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto ro = objects.BeginReadOnly();
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE((*ro)->Get(*id).ok());
  ASSERT_TRUE((*ro)->Commit().ok());

  BackupStore backup(cs->get());
  MemArchive archive;
  auto sink = archive.OpenSink("full");
  ASSERT_TRUE(backup.CreateBackupSet({{*pid, 0}}, 1, 0, sink.get()).ok());
  ASSERT_TRUE(sink->Close().ok());
  auto source = archive.OpenSource("full");
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(backup.RestoreStream(source->get()).ok());

  auto pager = TrustedPager::Create(
      cs->get(), CryptoParams{CipherAlg::kAes128, HashAlg::kSha256,
                              Bytes(16, 3)},
      TrustedPagerOptions{.page_size = 256, .resident_pages = 2});
  ASSERT_TRUE(pager.ok());
  for (uint64_t page = 0; page < 6; ++page) {
    ASSERT_TRUE((*pager)->Write(page * 256, Bytes(16, 1)).ok());
  }
  ASSERT_TRUE((*pager)->Read(0, 16).ok());  // faults page 0 back in

  MemPageFile file(512);
  ASSERT_TRUE(file.Extend(8).ok());
  Pager xdb_pager(&file, /*cache_pages=*/2);
  for (uint32_t page = 0; page < 8; ++page) {
    ASSERT_TRUE(xdb_pager.Read(page).ok());
  }
  (void)(*cs)->GetStats();  // publishes the chunk gauges

  StatsSnapshot snapshot = TakeSnapshot();
  for (const char* prefix : {"module.", "backup.", "paging.", "xdb."}) {
    bool seen = false;
    for (const auto& [name, n] : snapshot.counters) {
      seen |= name.starts_with(prefix);
    }
    for (const auto& h : snapshot.histograms) {
      seen |= h.name.starts_with(prefix);
    }
    EXPECT_TRUE(seen) << "no " << prefix << "* metric";
  }
  ExpectOneKindAndTheDottedForm(snapshot);
}

TEST_F(ObsTest, DerivedRatiosComeFromCounters) {
  Count("object.cache_hits", 9);
  Count("object.cache_misses", 1);
  Count("chunk.bytes_committed", 100);
  Count("chunk.log_bytes_appended", 150);
  Count("cleaner.bytes_rewritten", 30);
  auto derived = DerivedRatios();
  EXPECT_DOUBLE_EQ(derived.at("object_cache_hit_ratio"), 0.9);
  EXPECT_DOUBLE_EQ(derived.at("write_amplification"), 1.5);
  EXPECT_DOUBLE_EQ(derived.at("cleaning_overhead"), 30.0 / 150.0);
}

// The disabled-path contract: with observability off, an instrumentation
// site is one relaxed atomic load plus a branch. The budget is deliberately
// enormous (200 ns/site — two orders of magnitude above the real cost) so
// the test only fails if someone reintroduces real work (locks, map
// lookups, clock reads) on the disabled path; it stays green on slow or
// loaded CI machines.
TEST_F(ObsTest, DisabledSitesAreCheap) {
  DisableAll();
  constexpr int kIterations = 1000000;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    Count("test.overhead");
    TraceEmit(TraceKind::kCacheHit, "test");
    LatencyTimer timer("test.overhead_us");
    ProfileScope scope("module.test_overhead");  // no clock, no stack
    Observe("test.overhead_hist", 1.0);  // bucket fill must stay off too
  }
  auto elapsed = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  double ns_per_site = elapsed / (kIterations * 5.0);
  EXPECT_LT(ns_per_site, 200.0)
      << "disabled instrumentation cost " << ns_per_site << " ns per site";
  EXPECT_EQ(MetricsRegistry::Instance().GetCounter("test.overhead"), 0u);
  EXPECT_EQ(TraceJournal::Instance().TotalEmitted(), 0u);
  EXPECT_TRUE(MetricsRegistry::Instance().Histograms().empty());
}

// ---------------------------------------------------------------------------
// Percentiles: the shared quantile helpers and the bucketed histograms.

TEST(PercentileTest, SortedQuantileInterpolatesBetweenRanks) {
  std::vector<double> sorted = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.25), 20.0);
  // pos = 0.9 * 4 = 3.6 -> 40 + 0.6 * 10.
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(SortedQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(SortedQuantile({7.0}, 0.99), 7.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, -1.0), 10.0);
  EXPECT_DOUBLE_EQ(SortedQuantile(sorted, 2.0), 50.0);
  // The unsorted convenience wrapper agrees.
  EXPECT_DOUBLE_EQ(Quantile({50.0, 10.0, 40.0, 20.0, 30.0}, 0.9), 46.0);
}

TEST(PercentileTest, MeanAndStddevMatchHandComputation) {
  std::vector<double> samples = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(samples), 5.0);
  // Sample variance (n-1): sum of squared deviations is 32, / 7.
  EXPECT_NEAR(SampleStddev(samples), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStddev({3.0}), 0.0);
}

TEST(PercentileTest, BucketIndexAndBoundsAreConsistent) {
  // Underflow and overflow edges.
  EXPECT_EQ(BucketIndex(0.0), 0u);
  EXPECT_EQ(BucketIndex(0.999), 0u);
  EXPECT_EQ(BucketIndex(-5.0), 0u);
  EXPECT_EQ(BucketIndex(std::ldexp(1.0, 40)), kNumLatencyBuckets - 1);
  // Every in-range value lands in a bucket whose [lower, lower+width) span
  // contains it, and the width obeys the relative-error contract.
  for (double v : {1.0, 1.5, 2.0, 3.75, 17.0, 1000.0, 123456.0, 8.5e9}) {
    size_t idx = BucketIndex(v);
    ASSERT_GT(idx, 0u);
    ASSERT_LT(idx, kNumLatencyBuckets - 1);
    double lo = BucketLowerBound(idx);
    double width = BucketWidth(idx);
    EXPECT_LE(lo, v) << v;
    EXPECT_LT(v, lo + width) << v;
    EXPECT_LE(width / lo, kQuantileRelativeError * (1.0 + 1e-12)) << v;
  }
}

// Histogram quantiles must track exact sample quantiles within the bucket
// error bound across differently shaped distributions.
TEST_F(ObsTest, HistogramQuantilesAreAccurate) {
  std::mt19937_64 rng(12345);
  struct Case {
    const char* name;
    std::function<double()> draw;
  };
  std::uniform_real_distribution<double> uniform(1.0, 1000.0);
  std::exponential_distribution<double> expo(1.0 / 500.0);
  std::lognormal_distribution<double> lognorm(5.0, 1.5);
  Case cases[] = {
      {"test.quant_uniform", [&] { return uniform(rng); }},
      {"test.quant_expo", [&] { return 1.0 + expo(rng); }},
      {"test.quant_lognorm", [&] { return 1.0 + lognorm(rng); }},
  };
  for (auto& c : cases) {
    std::vector<double> samples;
    samples.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      double v = c.draw();
      samples.push_back(v);
      Observe(c.name, v);
    }
    std::sort(samples.begin(), samples.end());
    for (const auto& h : MetricsRegistry::Instance().Histograms()) {
      if (h.name != c.name) {
        continue;
      }
      ASSERT_EQ(h.count, samples.size());
      for (double q : {0.5, 0.95, 0.99, 0.999}) {
        double exact = SortedQuantile(samples, q);
        double approx = h.Quantile(q);
        // Bound: one bucket width (6.25% relative) plus interpolation slack.
        EXPECT_NEAR(approx, exact, exact * (kQuantileRelativeError + 0.02))
            << c.name << " q=" << q;
      }
      // Edge quantiles clamp to the exact observed extrema.
      EXPECT_DOUBLE_EQ(h.Quantile(0.0), h.min);
      EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max);
    }
  }
}

TEST_F(ObsTest, HighQuantileOfFewSpreadSamplesReportsTheTopSample) {
  // Two observations three buckets-of-magnitude apart: a server that
  // answered one fast ping and one slow one. p95 must report the slow
  // request, not round down to the fast one (the cumulative rank for
  // q > 1/2 lands on the 2nd observation when count == 2).
  Observe("test.small_count", 22.0);
  Observe("test.small_count", 1686.0);
  for (const auto& h : MetricsRegistry::Instance().Histograms()) {
    if (h.name != "test.small_count") {
      continue;
    }
    ASSERT_EQ(h.count, 2u);
    EXPECT_LT(h.Quantile(0.25), 30.0);
    EXPECT_GT(h.Quantile(0.95), 1500.0);
    EXPECT_GT(h.Quantile(0.999), 1500.0);
  }
}

TEST_F(ObsTest, HistogramBucketsMergeAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Observe("test.bucket_merge", (t + 1) * 100.0 + i * 0.01);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const auto& h : MetricsRegistry::Instance().Histograms()) {
    if (h.name != "test.bucket_merge") {
      continue;
    }
    ASSERT_EQ(h.buckets.size(), kNumLatencyBuckets);
    uint64_t total = 0;
    for (uint64_t b : h.buckets) {
      total += b;
    }
    EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);
    // The merged median sits between the per-thread bands.
    double p50 = h.Quantile(0.5);
    EXPECT_GT(p50, 100.0);
    EXPECT_LT(p50, 500.0);
  }
}

TEST_F(ObsTest, SnapshotJsonCarriesPercentiles) {
  for (int i = 1; i <= 1000; ++i) {
    Observe("test.pct_hist", static_cast<double>(i));
  }
  std::string json = SnapshotJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  for (const char* key : {"\"p50\"", "\"p95\"", "\"p99\"", "\"p999\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  for (const auto& h : MetricsRegistry::Instance().Histograms()) {
    if (h.name != "test.pct_hist") {
      continue;
    }
    EXPECT_NEAR(h.Quantile(0.5), 500.5, 500.5 * kQuantileRelativeError);
    EXPECT_NEAR(h.Quantile(0.99), 990.0, 990.0 * kQuantileRelativeError);
  }
}

}  // namespace
}  // namespace tdb::obs
