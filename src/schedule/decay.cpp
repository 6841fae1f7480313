#include "schedule/decay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "radio/simd.hpp"
#include "util/math.hpp"

namespace radiocast::schedule {

double decay_probability(std::uint32_t step) {
  if (step == 0) return 1.0;  // defensive; steps are 1-based
  if (step >= 64) return 0.0;
  return std::ldexp(1.0, -static_cast<int>(step));
}

std::uint32_t decay_round_length(std::uint32_t n) {
  return std::max<std::uint32_t>(1, util::clog2(n));
}

namespace {

/// One 64-node block's coin word for Bernoulli(2^-step): the AND of `step`
/// raw words, exited early once zero (the exit depends only on drawn
/// values, so the stream position stays a pure function of the lane's own
/// draw history).
std::uint64_t coin_word(util::Rng& rng, std::uint32_t step) {
  if (step == 0) return ~std::uint64_t{0};  // probability 1
  if (step >= 64) return 0;                 // matches decay_probability
  std::uint64_t w = rng();
  for (std::uint32_t j = 1; j < step && w != 0; ++j) w &= rng();
  return w;
}

std::uint64_t low_lanes(std::size_t lanes) {
  return lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
}

}  // namespace

namespace detail {

void lane_coins_scalar(std::span<util::Rng> lane_rng,
                       std::span<const std::uint64_t> block_lanes,
                       std::uint32_t step, std::span<std::uint64_t> words,
                       std::span<std::uint64_t> coin_lanes) {
  std::fill(words.begin(), words.end(), 0);
  std::fill(coin_lanes.begin(), coin_lanes.end(), 0);
  // Per lane, per block in block order: draw the coin word only where the
  // lane has a participant, so a lane's stream consumption depends on its
  // own participation alone and matches a standalone 1-lane run.
  for (std::size_t l = 0; l < lane_rng.size(); ++l) {
    for (std::size_t b = 0; b < block_lanes.size(); ++b) {
      if (((block_lanes[b] >> l) & 1) == 0) continue;
      const std::uint64_t c = coin_word(lane_rng[l], step);
      words[64 * b + 63 - l] = c;
      coin_lanes[b] |= std::uint64_t{c != 0} << l;
    }
  }
}

#if RADIOCAST_SIMD_AVX2
__attribute__((target("avx512f"))) void lane_coins_avx512(
    std::span<util::Rng> lane_rng, std::span<const std::uint64_t> block_lanes,
    std::uint32_t step, std::span<std::uint64_t> words,
    std::span<std::uint64_t> coin_lanes) {
  if (step == 0 || step >= 64) {  // coin_word's constant words, no draws
    lane_coins_scalar(lane_rng, block_lanes, step, words, coin_lanes);
    return;
  }
  const std::size_t lanes = lane_rng.size();
  const std::size_t blocks = block_lanes.size();
  const std::uint64_t lane_mask = low_lanes(lanes);
  // Structure of arrays: state word i of lane l at soa[i][l]; lanes past
  // `lanes` stay zero and are never advanced.
  alignas(64) std::uint64_t soa[4][64] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    for (int i = 0; i < 4; ++i) soa[i][l] = lane_rng[l].state()[i];
  }
  std::fill(coin_lanes.begin(), coin_lanes.end(), 0);
  // Row 63 - l holds lane l (the transpose's anti-diagonal contract), so a
  // group of lanes 8q..8q+7 lands reversed at rows 56 - 8q..63 - 8q.
  const __m512i reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i ones = _mm512_set1_epi64(-1);
  constexpr int kGroups = 4;  // 4 x 8 lanes in flight hide the state chain
  // Full-mask maskz forms: the unmasked intrinsics pass GCC 12 an
  // "undefined" source that trips -Wmaybe-uninitialized; same instructions.
  constexpr __mmask8 kAll = 0xFF;
  for (std::size_t g0 = 0; g0 < 64; g0 += 8 * kGroups) {
    if (g0 >= lanes) {  // lanes past the last chunk: zero rows
      for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t r = 0; r < 64 - g0; r += 8) {
          _mm512_storeu_si512(words.data() + 64 * b + r,
                              _mm512_setzero_si512());
        }
      }
      break;
    }
    __m512i s0[kGroups], s1[kGroups], s2[kGroups], s3[kGroups];
    for (int q = 0; q < kGroups; ++q) {
      s0[q] = _mm512_load_si512(soa[0] + g0 + 8 * q);
      s1[q] = _mm512_load_si512(soa[1] + g0 + 8 * q);
      s2[q] = _mm512_load_si512(soa[2] + g0 + 8 * q);
      s3[q] = _mm512_load_si512(soa[3] + g0 + 8 * q);
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint64_t part = (block_lanes[b] & lane_mask) >> g0;
      __mmask8 k[kGroups];
      __m512i w[kGroups];
      for (int q = 0; q < kGroups; ++q) {
        k[q] = static_cast<__mmask8>(part >> (8 * q));
        w[q] = _mm512_maskz_mov_epi64(k[q], ones);
      }
      // coin_word for every lane of the chunk at once: a lane draws while
      // it takes part in the block, its running AND is non-zero and fewer
      // than `step` words are in; masked-off lanes keep their state.
      for (std::uint32_t j = 0;
           j < step && (k[0] | k[1] | k[2] | k[3]) != 0; ++j) {
        for (int q = 0; q < kGroups; ++q) {
          // xoshiro256**: rotl(s1 * 5, 7) * 9, multiplies as shift-adds.
          const __m512i x = s1[q];
          __m512i r =
              _mm512_add_epi64(x, _mm512_maskz_slli_epi64(kAll, x, 2));
          r = _mm512_maskz_rol_epi64(kAll, r, 7);
          r = _mm512_add_epi64(r, _mm512_maskz_slli_epi64(kAll, r, 3));
          const __m512i t = _mm512_maskz_slli_epi64(kAll, x, 17);
          s2[q] = _mm512_mask_xor_epi64(s2[q], k[q], s2[q], s0[q]);
          s3[q] = _mm512_mask_xor_epi64(s3[q], k[q], s3[q], x);
          s1[q] = _mm512_mask_xor_epi64(s1[q], k[q], x, s2[q]);
          s0[q] = _mm512_mask_xor_epi64(s0[q], k[q], s0[q], s3[q]);
          s2[q] = _mm512_mask_xor_epi64(s2[q], k[q], s2[q], t);
          s3[q] = _mm512_mask_rol_epi64(s3[q], k[q], s3[q], 45);
          w[q] = _mm512_mask_and_epi64(w[q], k[q], w[q], r);
          k[q] = _mm512_mask_test_epi64_mask(k[q], w[q], w[q]);
        }
      }
      // Leaving the loop, k holds exactly the lanes whose word is non-zero.
      for (int q = 0; q < kGroups; ++q) {
        coin_lanes[b] |= std::uint64_t{k[q]} << (g0 + 8 * q);
        _mm512_storeu_si512(
            words.data() + 64 * b + 56 - g0 - 8 * q,
            _mm512_maskz_permutexvar_epi64(kAll, reverse, w[q]));
      }
    }
    for (int q = 0; q < kGroups; ++q) {
      _mm512_store_si512(soa[0] + g0 + 8 * q, s0[q]);
      _mm512_store_si512(soa[1] + g0 + 8 * q, s1[q]);
      _mm512_store_si512(soa[2] + g0 + 8 * q, s2[q]);
      _mm512_store_si512(soa[3] + g0 + 8 * q, s3[q]);
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    for (int i = 0; i < 4; ++i) lane_rng[l].state()[i] = soa[i][l];
  }
}
#endif

}  // namespace detail

std::uint32_t decay_step_lanes(radio::LaneExecutor& net,
                               std::span<const std::uint64_t> participates,
                               radio::PayloadPlanes payload_of,
                               std::uint32_t step,
                               radio::KnowledgePlanes best,
                               std::span<util::Rng> lane_rng,
                               radio::BatchOutcome& out) {
  const graph::NodeId n = net.node_count();
  const int lanes = static_cast<int>(lane_rng.size());
  if (lanes < 1 || lanes > net.lanes()) {
    throw std::invalid_argument(
        "decay_step_lanes: lane_rng size must be in [1, net.lanes()]");
  }
  if (participates.size() != n || best.plane_size() != n ||
      lanes > best.lane_capacity()) {
    throw std::invalid_argument("decay_step_lanes: plane size mismatch");
  }
  const std::size_t blocks = (static_cast<std::size_t>(n) + 63) / 64;

  static thread_local std::vector<std::uint64_t> block_lanes;
  static thread_local std::vector<std::uint64_t> coin_lanes;
  static thread_local std::vector<std::uint64_t> words;
  static thread_local std::vector<radio::ActiveTx> active;
  block_lanes.resize(blocks);
  active.resize(n);
  std::size_t k = 0;

  // Per block: the lanes with a participant in it.
  const std::uint64_t lane_mask = low_lanes(static_cast<std::size_t>(lanes));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t hi = std::min<std::size_t>(n, 64 * b + 64);
    std::uint64_t any = 0;
    for (std::size_t v = 64 * b; v < hi; ++v) any |= participates[v];
    block_lanes[b] = any & lane_mask;
  }

  // Transmitters are appended branch-free: every node is written, and the
  // cursor advances only past those with a non-empty lane mask.
  if (lanes == 1) {
    util::Rng& rng = lane_rng[0];
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint64_t coin = block_lanes[b] ? coin_word(rng, step) : 0;
      if (coin == 0) continue;
      const graph::NodeId base = static_cast<graph::NodeId>(b << 6);
      const graph::NodeId hi = std::min<graph::NodeId>(n, base + 64);
      for (graph::NodeId v = base; v < hi; ++v) {
        const std::uint64_t m = participates[v] & (coin >> (v & 63)) & 1;
        active[k] = {v, m};
        k += m != 0;
      }
    }
  } else {
    // Coin words are node-indexed per lane; a transmitter's lane mask is
    // lane-indexed per node. The coin kernel writes each block as 64 rows,
    // lane l at row 63-l, and the shared anti-diagonal transpose
    // (radio/simd.hpp) then leaves node v's lane mask at row 63-(v-base).
    coin_lanes.resize(blocks);
    words.resize(64 * blocks);
    if (radio::simd::has_avx512f()) {
      detail::lane_coins_avx512(lane_rng, block_lanes, step, words, coin_lanes);
    } else {
      detail::lane_coins_scalar(lane_rng, block_lanes, step, words, coin_lanes);
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      if (coin_lanes[b] == 0) continue;  // deep steps: silent blocks
      const std::span<std::uint64_t, 64> w(words.data() + 64 * b, 64);
      radio::simd::transpose64(w);
      const graph::NodeId base = static_cast<graph::NodeId>(b << 6);
      const graph::NodeId hi = std::min<graph::NodeId>(n, base + 64);
      for (graph::NodeId v = base; v < hi; ++v) {
        const std::uint64_t m = participates[v] & w[63 - (v - base)];
        active[k] = {v, m};
        k += m != 0;
      }
    }
  }

  // The transmitters go to the medium as a list in increasing node order,
  // so a deep (sparse) step costs O(active work) on the bitslice backend.
  net.step_lanes(std::span<const radio::ActiveTx>(active.data(), k),
                 payload_of, lanes, best, out);
  std::uint32_t delivered = 0;
  for (int l = 0; l < lanes; ++l) delivered += out.delivered_count[l];
  return delivered;
}

std::uint32_t decay_round_lanes(radio::LaneExecutor& net,
                                std::span<const std::uint64_t> participates,
                                radio::PayloadPlanes payload_of,
                                radio::KnowledgePlanes best,
                                std::span<util::Rng> lane_rng,
                                radio::BatchOutcome& out) {
  const std::uint32_t steps = decay_round_length(net.node_count());
  std::uint32_t delivered = 0;
  for (std::uint32_t s = 1; s <= steps; ++s) {
    delivered +=
        decay_step_lanes(net, participates, payload_of, s, best, lane_rng, out);
  }
  return delivered;
}

std::uint32_t decay_step(radio::Network& net,
                         const std::vector<std::uint8_t>& participates,
                         const std::vector<radio::Payload>& payload_of,
                         std::uint32_t step, std::vector<radio::Payload>& best,
                         util::Rng& rng) {
  const graph::NodeId n = net.node_count();
  static thread_local std::vector<std::uint64_t> mask;
  static thread_local radio::BatchOutcome out;
  mask.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) mask[v] = participates[v] ? 1 : 0;
  return decay_step_lanes(net, mask, payload_of, step, best,
                          std::span<util::Rng>(&rng, 1), out);
}

std::uint32_t decay_round(radio::Network& net,
                          const std::vector<std::uint8_t>& participates,
                          const std::vector<radio::Payload>& payload_of,
                          std::vector<radio::Payload>& best, util::Rng& rng) {
  const std::uint32_t steps = decay_round_length(net.node_count());
  std::uint32_t delivered = 0;
  for (std::uint32_t s = 1; s <= steps; ++s) {
    delivered +=
        decay_step(net, participates, payload_of, s, best, rng);
  }
  return delivered;
}

}  // namespace radiocast::schedule
