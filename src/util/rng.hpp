// Deterministic, fast pseudo-random number generation for simulations.
//
// The whole library routes randomness through Rng so that every experiment
// is reproducible from a single 64-bit seed. The generator is xoshiro256**
// (Blackman & Vigna), seeded via splitmix64, which is the recommended
// seeding procedure for the xoshiro family. Rng additionally provides the
// distributions the algorithms need: uniform integers/reals, Bernoulli,
// exponential (for Miller-Peng-Xu shifts), and geometric.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace radiocast::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Mix a seed with a stream identifier into an independent-looking seed.
/// Used to derive per-node / per-phase sub-streams deterministically.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // Two rounds of splitmix over the concatenation-ish combination; enough to
  // decorrelate seed/stream lattices in practice.
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  (void)splitmix64(s);
  return splitmix64(s);
}

/// xoshiro256** generator with a std::uniform_random_bit_generator-compatible
/// interface plus the handful of distributions the simulator needs.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0xC0FFEE123456789ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Raw 64 random bits.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_in(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform_real() {
    // 53 top bits -> double in [0,1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_real() < p;
  }

  /// Exponentially distributed real with rate `beta` (mean 1/beta).
  /// This is exactly the delta_v distribution of Partition(beta):
  /// P[X <= y] = 1 - exp(-beta*y).
  double exponential(double beta);

  /// Geometric: number of failures before first success, success prob p.
  std::uint64_t geometric(double p);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                        std::uint32_t k);

  /// Fork an independent sub-stream (deterministic in (state, stream)).
  Rng fork(std::uint64_t stream);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace radiocast::util
