// Unit and property tests for the util layer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mantis {
namespace {

// ---------------------------------------------------------------------------
// bits
// ---------------------------------------------------------------------------

TEST(Bits, MaskForWidth) {
  EXPECT_EQ(mask_for_width(0), 0u);
  EXPECT_EQ(mask_for_width(1), 1u);
  EXPECT_EQ(mask_for_width(8), 0xffu);
  EXPECT_EQ(mask_for_width(32), 0xffffffffu);
  EXPECT_EQ(mask_for_width(64), ~std::uint64_t{0});
  EXPECT_THROW(mask_for_width(65), PreconditionError);
}

TEST(Bits, TruncateToWidth) {
  EXPECT_EQ(truncate_to_width(0x1ff, 8), 0xffu);
  EXPECT_EQ(truncate_to_width(0x100, 8), 0u);
  EXPECT_EQ(truncate_to_width(42, 64), 42u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 1u);  // selector is never zero-width
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_THROW(ceil_log2(0), PreconditionError);
}

class CeilLog2Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CeilLog2Property, BoundsHold) {
  const std::uint64_t n = GetParam();
  const unsigned bits = ceil_log2(n);
  // 2^bits alternatives must be distinguishable.
  EXPECT_GE(std::uint64_t{1} << bits, n);
  if (n > 2) {
    EXPECT_LT(std::uint64_t{1} << (bits - 1), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CeilLog2Property,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 255,
                                           256, 1000, 4096, 1u << 20));

TEST(Bits, BitsToBytes) {
  EXPECT_EQ(bits_to_bytes(0), 0u);
  EXPECT_EQ(bits_to_bytes(1), 1u);
  EXPECT_EQ(bits_to_bytes(8), 1u);
  EXPECT_EQ(bits_to_bytes(9), 2u);
  EXPECT_EQ(bits_to_bytes(48), 6u);
}

// ---------------------------------------------------------------------------
// Rng / Zipf
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  EXPECT_EQ(a(), b());
  Rng a2(42);
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  EXPECT_THROW(rng.uniform(0), PreconditionError);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Zipf, RankOneMostProbable) {
  Rng rng(13);
  ZipfSampler zipf(1000, 1.1);
  std::vector<int> counts(1001, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto r = zipf.sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 1000u);
    ++counts[r];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[100]);
  EXPECT_GT(counts[1], 100000 / 20);  // top talker dominates
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.3);
  double total = 0;
  for (std::uint64_t r = 1; r <= 100; ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(zipf.pmf(1), zipf.pmf(2));
  EXPECT_THROW(zipf.pmf(0), PreconditionError);
  EXPECT_THROW(zipf.pmf(101), PreconditionError);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SamplesTest, AddAfterQueryStillSorted) {
  Samples s;
  s.add(3);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(2);
  // Percentile query after a post-sort add must re-sort. (The sorted_ flag
  // is reset implicitly by values_ being mutable; verify behaviour.)
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(MadTest, MatchesHandComputation) {
  // values: 1 1 2 2 4 6 9 -> median 2; |x-2| = 1 1 0 0 2 4 7 -> median 1
  EXPECT_DOUBLE_EQ(median_absolute_deviation({1, 1, 2, 2, 4, 6, 9}), 1.0);
}

TEST(MadTest, UniformIsZero) {
  EXPECT_DOUBLE_EQ(median_absolute_deviation({5, 5, 5, 5}), 0.0);
}

TEST(MadTest, DetectsSkewedLoadButIgnoresSingleOutlier) {
  // MAD flags a broadly skewed load distribution (the polarization regime
  // the paper's use case targets)...
  const double balanced = median_absolute_deviation({10, 11, 9, 10, 10, 12, 9, 10});
  const double skewed = median_absolute_deviation({50, 20, 10, 8, 5, 3, 2, 2});
  EXPECT_LT(balanced / 10.125, 0.1);  // MAD/mean small when balanced
  EXPECT_GT(skewed / 12.5, 0.25);     // and large when skewed
  // ...while staying robust to one outlier port (a documented MAD property).
  EXPECT_DOUBLE_EQ(median_absolute_deviation({80, 0, 0, 1, 0, 0, 0, 0}), 0.0);
}

TEST(MedianOf, EvenOdd) {
  EXPECT_DOUBLE_EQ(median_of({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median_of({}), PreconditionError);
}

}  // namespace
}  // namespace mantis
