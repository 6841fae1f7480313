#include "schedule/decay.hpp"

#include <array>
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

}  // namespace

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

  static thread_local std::vector<std::uint64_t> coin;
  static thread_local std::vector<std::uint64_t> block_lanes;
  static thread_local std::vector<radio::ActiveTx> active;
  coin.resize(blocks * static_cast<std::size_t>(lanes));
  block_lanes.assign(blocks, 0);
  active.clear();

  // Per block: the lanes with a participant in it.
  for (graph::NodeId v = 0; v < n; ++v) block_lanes[v >> 6] |= participates[v];

  // Per lane, per block in block order: draw the coin word only where the
  // lane has a participant, so a lane's stream consumption depends on its
  // own participation alone and matches a standalone 1-lane run.
  for (int l = 0; l < lanes; ++l) {
    util::Rng& rng = lane_rng[static_cast<std::size_t>(l)];
    std::uint64_t* lane_coin = coin.data() + static_cast<std::size_t>(l) * blocks;
    for (std::size_t b = 0; b < blocks; ++b) {
      lane_coin[b] = (block_lanes[b] >> l) & 1 ? coin_word(rng, step) : 0;
    }
  }

  if (lanes == 1) {
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::uint64_t m = participates[v] & (coin[v >> 6] >> (v & 63)) & 1;
      if (m != 0) active.push_back({v, m});
    }
  } else {
    // Coin words are node-indexed per lane; a transmitter's lane mask is
    // lane-indexed per node. Transpose 64 lanes x 64 nodes per block with
    // the shared anti-diagonal kernel (radio/simd.hpp): load row 63-l,
    // read row 63-(v-base) for the main-diagonal transpose for free.
    std::array<std::uint64_t, 64> w;
    for (std::size_t b = 0; b < blocks; ++b) {
      w.fill(0);
      std::uint64_t any = 0;
      for (int l = 0; l < lanes; ++l) {
        const std::uint64_t c = coin[static_cast<std::size_t>(l) * blocks + b];
        w[static_cast<std::size_t>(63 - l)] = c;
        any |= c;
      }
      const graph::NodeId base = static_cast<graph::NodeId>(b << 6);
      const graph::NodeId hi = std::min<graph::NodeId>(n, base + 64);
      if (any == 0) continue;  // deep steps: whole blocks of silent coins
      radio::simd::transpose64(w);
      for (graph::NodeId v = base; v < hi; ++v) {
        const std::uint64_t m =
            participates[v] & w[static_cast<std::size_t>(63 - (v - base))];
        if (m != 0) active.push_back({v, m});
      }
    }
  }

  // The transmitters go to the medium as a list in increasing node order,
  // so a deep (sparse) step costs O(active work) on the bitslice backend.
  net.step_lanes(active, payload_of, lanes, best, out);
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
