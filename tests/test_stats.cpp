#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace radiocast::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  OnlineStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(OnlineStats, Ci95ShrinksWithSamples) {
  OnlineStats small, big;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) big.add(i % 3);
  EXPECT_GT(small.ci95_halfwidth(), big.ci95_halfwidth());
}

TEST(Sample, QuantilesOfKnownData) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
}

TEST(Sample, QuantileClampsRange) {
  Sample s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.quantile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(2.0), 3.0);
}

TEST(Sample, MeanAndStddev) {
  Sample s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Sample, AddAfterQuantileStillCorrect) {
  Sample s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const auto f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 1.0, 1e-10);
  EXPECT_NEAR(f.slope, 2.0, 1e-10);
  EXPECT_NEAR(f.r2, 1.0, 1e-10);
}

TEST(LinearFit, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fit_linear({}, {}).slope, 0.0);
  EXPECT_DOUBLE_EQ(fit_linear({1}, {2}).slope, 0.0);
  // Vertical data: all x equal.
  const auto f = fit_linear({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 4
  h.add(-5.0);   // clamps to bin 0
  h.add(50.0);   // clamps to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, AsciiRendersEveryBin) {
  Histogram h(0.0, 4.0, 4);
  for (int i = 0; i < 10; ++i) h.add(1.5);
  const std::string art = h.ascii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

// ---- Wilson score intervals (sweep success rates)

TEST(Wilson, KnownValue) {
  // 8/10 at z=1.96: the classic worked example — [0.490, 0.943].
  const WilsonInterval w = wilson_interval(8, 10);
  EXPECT_NEAR(w.lo, 0.4902, 5e-4);
  EXPECT_NEAR(w.hi, 0.9433, 5e-4);
}

TEST(Wilson, StaysInsideUnitIntervalAtTheEdges) {
  const WilsonInterval all = wilson_interval(20, 20);
  EXPECT_GT(all.lo, 0.8);   // informative even at p-hat = 1
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  const WilsonInterval none = wilson_interval(0, 20);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_LT(none.hi, 0.2);  // informative even at p-hat = 0
}

TEST(Wilson, DegenerateAndNarrowingCases) {
  const WilsonInterval empty = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 1.0);
  // More trials at the same rate narrow the interval.
  const WilsonInterval small = wilson_interval(8, 16);
  const WilsonInterval big = wilson_interval(800, 1600);
  EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
  // The point estimate always lies inside.
  for (std::size_t s : {0u, 3u, 9u, 10u}) {
    const WilsonInterval w = wilson_interval(s, 10);
    const double p = s / 10.0;
    EXPECT_LE(w.lo, p);
    EXPECT_GE(w.hi, p);
  }
}

}  // namespace
}  // namespace radiocast::util
