// The bit kernels of radio/simd.hpp: the AVX2 64x64 transpose must match
// the scalar Hacker's Delight kernel bit for bit.
#include "radio/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "util/rng.hpp"

namespace radiocast::radio::simd {
namespace {

using Matrix = std::array<std::uint64_t, 64>;

TEST(Simd, Transpose64Avx2MatchesScalar) {
#if RADIOCAST_SIMD_AVX2
  if (!has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  const auto check = [](const Matrix& in) {
    Matrix scalar = in;
    Matrix vector = in;
    detail::transpose64_scalar(scalar.data());
    detail::transpose64_avx2(vector.data());
    EXPECT_EQ(scalar, vector);
    return vector;
  };
  util::Rng rng(64);
  for (int trial = 0; trial < 256; ++trial) {
    Matrix m;
    for (std::uint64_t& w : m) w = trial % 2 ? rng() : rng() & rng() & rng();
    check(m);
  }
  // All 4096 single-bit matrices, which also pin the anti-diagonal
  // contract: bit j of row i lands at bit 63-i of row 63-j.
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      Matrix m{};
      m[i] = std::uint64_t{1} << j;
      Matrix want{};
      want[63 - j] = std::uint64_t{1} << (63 - i);
      ASSERT_EQ(check(m), want) << "row " << i << " bit " << j;
    }
  }
#else
  GTEST_SKIP() << "no AVX2 kernel on this target";
#endif
}

}  // namespace
}  // namespace radiocast::radio::simd
