// Unit tests for src/common: status/result, byte helpers, pickle streams,
// RNG, statistics, and the module profiler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/pickle.h"
#include "src/obs/profiler.h"
#include "src/common/rng.h"
#include "src/common/sharded_cache.h"
#include "src/common/stats.h"
#include "src/common/status.h"

namespace tdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status s = TamperDetectedError("hash mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTamperDetected);
  EXPECT_EQ(s.ToString(), "TAMPER_DETECTED: hash mismatch");
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  TDB_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return OkStatus();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status s = UseHalf(3, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsMoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(b), "0001abff");
  EXPECT_EQ(HexDecode("0001abff"), b);
  EXPECT_EQ(HexDecode("0001ABFF"), b);
  EXPECT_TRUE(HexDecode("abc").empty());   // odd length
  EXPECT_TRUE(HexDecode("zz").empty());    // bad digits
}

TEST(BytesTest, FixedWidthIntegers) {
  Bytes b;
  PutU16(b, 0x1234);
  PutU32(b, 0xdeadbeef);
  PutU64(b, 0x0123456789abcdefULL);
  EXPECT_EQ(GetU16(b.data()), 0x1234);
  EXPECT_EQ(GetU32(b.data() + 2), 0xdeadbeefu);
  EXPECT_EQ(GetU64(b.data() + 6), 0x0123456789abcdefULL);
}

TEST(PickleTest, RoundTripAllTypes) {
  PickleWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteVarint(300);
  w.WriteI64(-42);
  w.WriteBool(true);
  w.WriteBytes(BytesFromString("payload"));
  w.WriteString("name");

  PickleReader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadVarint(), 300u);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadBytes(), BytesFromString("payload"));
  EXPECT_EQ(r.ReadString(), "name");
  EXPECT_TRUE(r.Done().ok());
}

TEST(PickleTest, VarintBoundaries) {
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     0xffffffffULL, ~0ULL}) {
    PickleWriter w;
    w.WriteVarint(v);
    PickleReader r(w.data());
    EXPECT_EQ(r.ReadVarint(), v);
    EXPECT_TRUE(r.Done().ok());
  }
}

TEST(PickleTest, ZigzagBoundaries) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    PickleWriter w;
    w.WriteI64(v);
    PickleReader r(w.data());
    EXPECT_EQ(r.ReadI64(), v);
  }
}

TEST(PickleTest, TruncatedReadFailsSoftly) {
  PickleWriter w;
  w.WriteU64(1);
  PickleReader r(ByteView(w.data().data(), 4));
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.Done().ok());
}

TEST(PickleTest, TrailingBytesDetected) {
  PickleWriter w;
  w.WriteU8(1);
  w.WriteU8(2);
  PickleReader r(w.data());
  r.ReadU8();
  EXPECT_FALSE(r.Done().ok());
  EXPECT_TRUE(r.Check().ok());
}

TEST(PickleTest, MalformedVarintRejected) {
  Bytes evil(11, 0xff);  // more continuation bytes than a u64 can hold
  PickleReader r(evil);
  r.ReadVarint();
  EXPECT_FALSE(r.ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BytesHaveRequestedLength) {
  Rng rng(3);
  EXPECT_EQ(rng.NextBytes(0).size(), 0u);
  EXPECT_EQ(rng.NextBytes(7).size(), 7u);
  EXPECT_EQ(rng.NextBytes(16).size(), 16u);
}

TEST(RunningStatsTest, MeanAndStddev) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(LinearRegressionTest, RecoversPlantedModel) {
  // y = 132 + 36*x1 + 0.24*x2, the paper's commit cost shape (§9.2.2).
  LinearRegression reg(2);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double chunks = static_cast<double>(rng.NextInRange(1, 128));
    double bytes = static_cast<double>(rng.NextInRange(128, 16384));
    reg.Add({chunks, bytes}, 132.0 + 36.0 * chunks + 0.24 * bytes);
  }
  std::vector<double> beta = reg.Solve();
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 132.0, 1e-6);
  EXPECT_NEAR(beta[1], 36.0, 1e-9);
  EXPECT_NEAR(beta[2], 0.24, 1e-9);
  EXPECT_NEAR(reg.RSquared(beta), 1.0, 1e-9);
}

// E4's sweep shape: commits of 1-128 chunks of 128 B-16 KiB span three
// orders of magnitude, and timing noise is proportional to the commit.
// Unweighted, the largest commits decide the fit and its intercept is
// lost in their noise; weighted by 1/y^2, every term comes back.
TEST(LinearRegressionTest, RelativeWeightsRecoverAModelUnderMultiplicativeNoise) {
  LinearRegression weighted(2);
  LinearRegression unweighted(2);
  Rng rng(11);
  for (double size : {128.0, 512.0, 2048.0, 16384.0}) {
    for (double chunks = 1; chunks <= 128; chunks *= 2) {
      for (int rep = 0; rep < 8; ++rep) {
        const double model = 132.0 + 36.0 * chunks + 0.24 * chunks * size;
        const double y = model * (0.9 + 0.2 * rng.NextDouble());  // ±10%
        weighted.Add({chunks, chunks * size}, y, 1.0 / (y * y));
        unweighted.Add({chunks, chunks * size}, y);
      }
    }
  }
  std::vector<double> beta = weighted.Solve();
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 132.0, 0.1 * 132.0);
  EXPECT_NEAR(beta[1], 36.0, 0.1 * 36.0);
  EXPECT_NEAR(beta[2], 0.24, 0.02 * 0.24);
  std::vector<double> plain = unweighted.Solve();
  ASSERT_EQ(plain.size(), 3u);
  EXPECT_GT(std::fabs(plain[0] - 132.0), 10 * std::fabs(beta[0] - 132.0));
}

TEST(LinearRegressionTest, SingularSystemReturnsEmpty) {
  LinearRegression reg(1);
  reg.Add({1.0}, 2.0);  // underdetermined
  EXPECT_TRUE(reg.Solve().empty());
}

// ProfileScope observes self time into the registry's module.* histograms,
// and Profiler reads them back as Figure-12 rows.
TEST(ProfilerTest, NestedScopesExcludeChildren) {
  // Wall-clock comparison, so a preemption mid-loop (common when the whole
  // suite runs in parallel) can inflate one side arbitrarily. Retry a few
  // times; the exclusion property only has to hold on an undisturbed run.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  double outer_us = 0, inner_us = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    registry.Reset();
    registry.Enable();
    {
      ProfileScope outer("module.outer");
      volatile double sink = 0;
      for (int i = 0; i < 100000; ++i) {
        sink += std::sqrt(static_cast<double>(i));
      }
      {
        ProfileScope inner("module.inner");
        for (int i = 0; i < 100000; ++i) {
          sink += std::sqrt(static_cast<double>(i));
        }
      }
    }
    registry.Disable();
    outer_us = 0;
    inner_us = 0;
    for (const auto& e : Profiler::Instance().Snapshot()) {
      if (e.module == "outer") {
        outer_us = e.total_us;
      } else if (e.module == "inner") {
        inner_us = e.total_us;
      }
    }
    if (outer_us > 0.0 && inner_us > 0.0 && outer_us < inner_us * 1.8) {
      break;
    }
  }
  EXPECT_GT(outer_us, 0.0);
  EXPECT_GT(inner_us, 0.0);
  // Outer excludes inner's time, so both should be the same order of
  // magnitude (same loop), not outer ≈ 2× inner.
  EXPECT_LT(outer_us, inner_us * 1.8);
}

TEST(ProfilerTest, SamplesFromWorkerThreadsMergeIntoSnapshot) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  registry.Reset();
  registry.Enable();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int call = 0; call < 16; ++call) {
        ProfileScope scope("module.worker");
        volatile double sink = 0;
        for (int i = 0; i < 10000; ++i) {
          sink = sink + static_cast<double>(i) * 0.5;
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  registry.Disable();
  bool found = false;
  for (const auto& e : Profiler::Modules(registry.Histograms())) {
    if (e.module == "worker") {
      found = true;
      EXPECT_EQ(e.calls, 64u);
      EXPECT_GT(e.total_us, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

// The capacity is a total budget, also below the shard count.
TEST(ShardedLruCacheTest, NeverHoldsMoreThanItsCapacity) {
  for (size_t capacity : {0, 1, 2, 3, 5, 8, 64, 100}) {
    ShardedLruCache<int> cache(capacity, {});
    EXPECT_EQ(cache.enabled(), capacity > 0);
    EXPECT_LE(cache.shard_count(), std::max<size_t>(capacity, 1));
    for (uint64_t rank = 0; rank < 4 * capacity + 16; ++rank) {
      cache.Put(ChunkId(1, 0, rank), static_cast<int>(rank));
      EXPECT_LE(cache.size(), capacity) << "capacity=" << capacity;
    }
  }
}

TEST(ShardedLruCacheTest, CapacityOneEvictsThePreviousEntry) {
  ShardedLruCache<int> cache(1, {});
  EXPECT_EQ(cache.shard_count(), 1u);
  cache.Put(ChunkId(1, 0, 1), 1);
  cache.Put(ChunkId(1, 0, 2), 2);
  EXPECT_FALSE(cache.Get(ChunkId(1, 0, 1)).has_value());
  EXPECT_EQ(cache.Get(ChunkId(1, 0, 2)), 2);
}

TEST(ShardedLruCacheTest, LargeCachesKeepTheirShards) {
  ShardedLruCache<int> cache(4096, {});
  EXPECT_EQ(cache.shard_count(), kCacheShards);
  for (uint64_t rank = 0; rank < 4096; ++rank) {
    cache.Put(ChunkId(1, 0, rank), static_cast<int>(rank));
  }
  // Up to 1,024 per shard; the hash spreads sequential ranks across shards.
  EXPECT_GT(cache.size(), 3500u);
  EXPECT_LE(cache.size(), 4096u);
}

}  // namespace
}  // namespace tdb
