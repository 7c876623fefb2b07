#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/intern.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/time.h"

namespace ranomaly::util {
namespace {

// --- Crc32 --------------------------------------------------------------

// The textbook bit-at-a-time CRC-32 (reflected 0xedb88320), one byte at
// a time: the definition the table-driven loop must reproduce.
std::uint32_t ReferenceCrc32(const unsigned char* data, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::vector<unsigned char> NoiseBytes(std::size_t size) {
  Rng rng(20261017);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// Every length across the 64-byte fold and the 16-byte slices, at every
// start alignment, through the dispatched path (carry-less multiply on
// CPUs that have it) and the portable slice-by-16 path.
TEST(Crc32Test, MatchesByteAtATimeReferenceAtEveryOffset) {
  const std::vector<unsigned char> bytes = NoiseBytes(16 + 1100);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t size = 0; size <= 1100; ++size) {
      const std::uint32_t want = ReferenceCrc32(bytes.data() + offset, size);
      ASSERT_EQ(Crc32(bytes.data() + offset, size), want)
          << "offset " << offset << " size " << size;
      ASSERT_EQ(internal::PortableCrc32(bytes.data() + offset, size), want)
          << "offset " << offset << " size " << size;
    }
  }
}

// A snapshot-sized buffer: 93,750 folds of 64 bytes, then a 37-byte tail.
TEST(Crc32Test, MatchesReferenceOnSixMegabytes) {
  const std::vector<unsigned char> bytes = NoiseBytes(6'000'037);
  const std::uint32_t want = ReferenceCrc32(bytes.data(), bytes.size());
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), want);
  EXPECT_EQ(internal::PortableCrc32(bytes.data(), bytes.size()), want);
}

TEST(Crc32Test, AccumulatorSplitAnywhereEqualsOneShot) {
  const std::vector<unsigned char> bytes = NoiseBytes(1100);
  const std::uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    Crc32Accumulator acc;
    acc.Update(bytes.data(), split);
    acc.Update(bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(acc.value(), whole) << "split at " << split;
  }
}

// --- Rng ----------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.NextBelow(0), std::invalid_argument);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.Shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// --- ZipfSampler ----------------------------------------------------------

TEST(ZipfTest, MassSumsToOne) {
  ZipfSampler zipf(100, 1.1);
  double total = 0.0;
  for (std::size_t i = 0; i < 100; ++i) total += zipf.Mass(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, HeadDominatesTail) {
  ZipfSampler zipf(1000, 1.1);
  // Rank 0 should outweigh rank 500 by a large factor.
  EXPECT_GT(zipf.Mass(0), 100 * zipf.Mass(500));
}

TEST(ZipfTest, SamplesFollowSkew) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(ZipfTest, EmptyThrows) { EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument); }

// --- InternPool ------------------------------------------------------------

TEST(InternPoolTest, AssignsDenseIds) {
  InternPool<std::string> pool;
  EXPECT_EQ(pool.Intern("a"), 0u);
  EXPECT_EQ(pool.Intern("b"), 1u);
  EXPECT_EQ(pool.Intern("a"), 0u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Lookup(1), "b");
}

TEST(InternPoolTest, FindWithoutInsert) {
  InternPool<std::string> pool;
  pool.Intern("x");
  EXPECT_EQ(pool.Find("x"), 0u);
  EXPECT_EQ(pool.Find("y"), (InternPool<std::string>::kNotFound));
}

TEST(InternPoolTest, LookupOutOfRangeThrows) {
  InternPool<std::string> pool;
  EXPECT_THROW(pool.Lookup(0), std::out_of_range);
}

// --- stats -----------------------------------------------------------------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(StatsTest, PercentileRejectsBadInput) {
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(Percentile({1.0}, 101), std::invalid_argument);
}

TEST(RateSeriesTest, BucketsAndSpikes) {
  RateSeries series(0, kSecond);
  // Baseline 1/sec for 10s, spike of 50 in bucket 5.
  for (int i = 0; i < 10; ++i) series.Add(i * kSecond);
  series.Add(5 * kSecond + 1, 50);
  const auto spikes = series.SpikesAbove(5.0);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 5u);
}

TEST(RateSeriesTest, ClampsEventsBeforeStartIntoFirstBucket) {
  // Mis-stamped events (before the series start) land in bucket 0 rather
  // than being dropped, and are tallied for diagnostics.
  RateSeries series(10 * kSecond, kSecond);
  series.Add(0);
  series.Add(9 * kSecond, 3);
  ASSERT_EQ(series.buckets().size(), 1u);
  EXPECT_EQ(series.buckets()[0], 4u);
  EXPECT_EQ(series.clamped(), 4u);
  // In-range events don't touch the clamp counter.
  series.Add(10 * kSecond);
  EXPECT_EQ(series.clamped(), 4u);
  EXPECT_EQ(series.buckets()[0], 5u);
}

TEST(RateSeriesTest, EmptySeriesHasNoSpikes) {
  RateSeries series(0, kSecond);
  EXPECT_TRUE(series.buckets().empty());
  EXPECT_TRUE(series.SpikesAbove(1.0).empty());
  EXPECT_EQ(series.clamped(), 0u);
}

TEST(RateSeriesTest, SingleBucketSeries) {
  RateSeries series(0, kSecond);
  series.Add(kSecond / 2, 7);
  ASSERT_EQ(series.buckets().size(), 1u);
  EXPECT_EQ(series.buckets()[0], 7u);
  // A lone bucket is its own baseline: no spike to stand out from.
  EXPECT_TRUE(series.SpikesAbove(1.0).empty());
}

// --- strings -----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitWhitespaceDropsRuns) {
  const auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, ParseU32RejectsGarbage) {
  std::uint32_t v = 0;
  EXPECT_TRUE(ParseU32("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(ParseU32("", v));
  EXPECT_FALSE(ParseU32("4x", v));
  EXPECT_FALSE(ParseU32("-3", v));
  EXPECT_FALSE(ParseU32("4294967296", v));  // 2^32
  EXPECT_TRUE(ParseU32("4294967295", v));
}

TEST(StringsTest, StrPrintfFormats) {
  EXPECT_EQ(StrPrintf("%d-%s", 7, "x"), "7-x");
}

// --- time ---------------------------------------------------------------------

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(423 * kSecond), "423 sec");
  EXPECT_EQ(FormatDuration(36 * kMinute), "36.0 min");
  EXPECT_EQ(FormatDuration(static_cast<SimDuration>(7.6 * 3600) * kSecond),
            "7.6 hrs");
}

TEST(TimeTest, FormatTimeIsStable) {
  EXPECT_EQ(FormatTime(0), "[+00:00:00.000]");
  EXPECT_EQ(FormatTime(90 * kSecond + 250 * kMillisecond), "[+00:01:30.250]");
}

}  // namespace
}  // namespace ranomaly::util
