#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace radiocast::util {

Rng::Rng(std::uint64_t seed) {
  // Standard seeding procedure: fill state with splitmix64 outputs. A state
  // of all zeros is impossible because splitmix64 is a bijection walked from
  // distinct counter values.
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x853C49E6748FEA9BULL;
  }
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_in(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) {  // full 64-bit span
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(uniform(range));
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform_real();
}

double Rng::exponential(double beta) {
  assert(beta > 0.0);
  // Inverse CDF; 1 - U ~ U avoids log(0) since uniform_real() < 1.
  double u = uniform_real();
  return -std::log1p(-u) / beta;
}

std::uint64_t Rng::geometric(double p) {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  double u = uniform_real();
  return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  assert(k <= n);
  // Selection sampling for small k, partial Fisher-Yates otherwise.
  std::vector<std::uint32_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (static_cast<std::uint64_t>(k) * 16 < n) {
    // Floyd's algorithm: O(k) expected, no O(n) scratch.
    std::vector<std::uint32_t> chosen;
    chosen.reserve(k);
    for (std::uint32_t j = n - k; j < n; ++j) {
      std::uint32_t t = static_cast<std::uint32_t>(uniform(j + 1));
      bool seen = false;
      for (std::uint32_t c : chosen) {
        if (c == t) {
          seen = true;
          break;
        }
      }
      chosen.push_back(seen ? j : t);
    }
    out = std::move(chosen);
    shuffle(out);
  } else {
    std::vector<std::uint32_t> idx(n);
    for (std::uint32_t i = 0; i < n; ++i) idx[i] = i;
    for (std::uint32_t i = 0; i < k; ++i) {
      std::uint32_t j = i + static_cast<std::uint32_t>(uniform(n - i));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    out = std::move(idx);
  }
  return out;
}

Rng Rng::fork(std::uint64_t stream) {
  return Rng(mix_seed((*this)(), stream));
}

}  // namespace radiocast::util
