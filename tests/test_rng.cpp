#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace radiocast::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  std::uint64_t x = 0;
  for (int i = 0; i < 10; ++i) x |= r();
  EXPECT_NE(x, 0u);
}

TEST(Rng, UniformRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.uniform(bound), bound);
  }
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[r.uniform(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
  }
}

TEST(Rng, UniformInInclusiveRange) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto x = r.uniform_in(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng r(17);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRealMeanIsHalf) {
  Rng r(19);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += r.uniform_real();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(29);
  int heads = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) heads += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  // This is the delta_v distribution of Partition(beta): mean must be
  // 1/beta for Lemma 2.1's radius bound to hold.
  Rng r(31);
  for (double beta : {0.1, 0.5, 1.0, 4.0}) {
    double sum = 0;
    constexpr int kN = 200000;
    for (int i = 0; i < kN; ++i) sum += r.exponential(beta);
    EXPECT_NEAR(sum / kN, 1.0 / beta, 0.05 / beta)
        << "beta = " << beta;
  }
}

TEST(Rng, ExponentialCdfAtMedian) {
  Rng r(37);
  const double beta = 2.0;
  const double median = std::log(2.0) / beta;
  int below = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) below += r.exponential(beta) <= median;
  EXPECT_NEAR(static_cast<double>(below) / kN, 0.5, 0.01);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng r(41);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.exponential(0.7), 0.0);
}

TEST(Rng, GeometricMean) {
  Rng r(43);
  const double p = 0.25;
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(r.geometric(p));
  // mean failures before success = (1-p)/p = 3
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  r.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng r(53);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  const auto before = v;
  r.shuffle(v);
  EXPECT_NE(v, before);  // probability of identity is 1/100!
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(59);
  for (std::uint32_t n : {10u, 100u, 1000u}) {
    for (std::uint32_t k : {0u, 1u, 5u, n / 2, n}) {
      auto s = r.sample_without_replacement(n, k);
      EXPECT_EQ(s.size(), k);
      std::set<std::uint32_t> distinct(s.begin(), s.end());
      EXPECT_EQ(distinct.size(), k);
      for (auto x : s) EXPECT_LT(x, n);
    }
  }
}

TEST(Rng, SampleSmallKUsesAllElements) {
  // With k=2 from n=4 over many trials, every element should appear.
  Rng r(61);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 500; ++i) {
    for (auto x : r.sample_without_replacement(4, 2)) seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng a(67);
  Rng b = a.fork(1);
  Rng c = a.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (b() == c()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(MixSeed, DistinctStreamsDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) {
    seeds.insert(mix_seed(12345, s));
  }
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(Splitmix64, KnownGolden) {
  // Reference values from the public-domain splitmix64 implementation
  // walked from state 0.
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  EXPECT_EQ(first, 0xE220A8397B1DCDAFULL);
}

// The hot-path generator functions live inline in rng.hpp; these are their
// first outputs for seed 42, recorded while they were out of line in
// rng.cpp, so moving code between the two cannot shift any stream.
TEST(Rng, GoldenStream) {
  constexpr std::uint64_t kSplitmix[8] = {
      0xBDD732262FEB6E95ULL, 0x28EFE333B266F103ULL, 0x47526757130F9F52ULL,
      0x581CE1FF0E4AE394ULL, 0x09BC585A244823F2ULL, 0xDE4431FA3C80DB06ULL,
      0x37E9671C45376D5DULL, 0xCCF635EE9E9E2FA4ULL};
  constexpr std::uint64_t kMixSeed[8] = {
      0x47526757130F9F52ULL, 0x6545D3B48B05C974ULL, 0xD898A231B906C08FULL,
      0xDE4431FA3C80DB06ULL, 0x9E93AEBB9E3E4EEDULL, 0x20E92904C8C23DA4ULL,
      0x751DF7B775A96370ULL, 0x38A8712A49CA13B5ULL};
  constexpr std::uint64_t kRaw[8] = {
      0x15780B2E0C2EC716ULL, 0x6104D9866D113A7EULL, 0xAE17533239E499A1ULL,
      0xECB8AD4703B360A1ULL, 0xFDE6DC7FE2EC5E64ULL, 0xC50DA53101795238ULL,
      0xB82154855A65DDB2ULL, 0xD99A2743EBE60087ULL};
  constexpr double kReal[8] = {
      0x1.5780b2e0c2ecp-4,  0x1.84136619b444ep-2, 0x1.5c2ea66473c93p-1,
      0x1.d9715a8e0766cp-1, 0x1.fbcdb8ffc5d8bp-1, 0x1.8a1b4a6202f2ap-1,
      0x1.7042a90ab4cbbp-1, 0x1.b3344e87d7ccp-1};
  constexpr bool kBernoulli[8] = {true,  false, false, false,
                                  false, false, false, false};
  std::uint64_t state = 42;
  Rng raw(42), real(42), coin(42);
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(splitmix64(state), kSplitmix[i]);
    EXPECT_EQ(mix_seed(42, static_cast<std::uint64_t>(i)), kMixSeed[i]);
    EXPECT_EQ(raw(), kRaw[i]);
    EXPECT_EQ(real.uniform_real(), kReal[i]);
    EXPECT_EQ(coin.bernoulli(0.3), kBernoulli[i]);
  }
}

}  // namespace
}  // namespace radiocast::util
