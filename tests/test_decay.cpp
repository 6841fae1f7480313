// Decay primitive (Algorithm 5) and Lemma 3.1: one Decay round informs a
// listener with at least one participating neighbour with constant
// probability.
#include "schedule/decay.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "radio/simd.hpp"

namespace radiocast::schedule {
namespace {

TEST(Decay, ProbabilityHalvesPerStep) {
  EXPECT_DOUBLE_EQ(decay_probability(1), 0.5);
  EXPECT_DOUBLE_EQ(decay_probability(2), 0.25);
  EXPECT_DOUBLE_EQ(decay_probability(10), 1.0 / 1024.0);
  EXPECT_DOUBLE_EQ(decay_probability(0), 1.0);   // defensive
  EXPECT_DOUBLE_EQ(decay_probability(80), 0.0);  // underflow guard
}

TEST(Decay, RoundLengthIsCeilLog2) {
  EXPECT_EQ(decay_round_length(1), 1u);
  EXPECT_EQ(decay_round_length(2), 1u);
  EXPECT_EQ(decay_round_length(3), 2u);
  EXPECT_EQ(decay_round_length(1024), 10u);
  EXPECT_EQ(decay_round_length(1025), 11u);
}

TEST(Decay, StepDeliversOnIsolatedEdge) {
  // Single participant, step probability 1/2: over many trials the
  // neighbour is informed about half the time.
  const graph::Graph g = graph::path(2);
  util::Rng rng(1);
  int informed = 0;
  constexpr int kTrials = 4000;
  for (int t = 0; t < kTrials; ++t) {
    radio::Network net(g);
    std::vector<std::uint8_t> part{1, 0};
    std::vector<radio::Payload> pay{99, radio::kNoPayload};
    std::vector<radio::Payload> best{99, radio::kNoPayload};
    decay_step(net, part, pay, 1, best, rng);
    informed += best[1] == 99;
  }
  EXPECT_NEAR(informed / static_cast<double>(kTrials), 0.5, 0.03);
}

// Lemma 3.1 sweep: success probability of a full Decay round as a function
// of the number of participating neighbours stays bounded below by a
// constant (we assert >= 0.2; the textbook constant is ~1/(2e)).
class DecayLemma31 : public ::testing::TestWithParam<int> {};

TEST_P(DecayLemma31, ConstantSuccessProbability) {
  const int neighbors = GetParam();
  const graph::Graph g = graph::star(neighbors + 1);
  util::Rng rng(100 + neighbors);
  int informed = 0;
  constexpr int kTrials = 600;
  for (int t = 0; t < kTrials; ++t) {
    radio::Network net(g);
    std::vector<std::uint8_t> part(g.node_count(), 1);
    part[0] = 0;  // centre listens
    std::vector<radio::Payload> pay(g.node_count(), 5);
    std::vector<radio::Payload> best(g.node_count(), 5);
    best[0] = radio::kNoPayload;
    decay_round(net, part, pay, best, rng);
    informed += best[0] == 5;
  }
  const double p = informed / static_cast<double>(kTrials);
  EXPECT_GE(p, 0.2) << neighbors << " participating neighbours";
}

INSTANTIATE_TEST_SUITE_P(NeighborCounts, DecayLemma31,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

TEST(Decay, RoundInformsAlongPathEventually) {
  // Repeated Decay rounds from an informed head must walk a path.
  const graph::Graph g = graph::path(12);
  util::Rng rng(3);
  radio::Network net(g);
  std::vector<radio::Payload> best(12, radio::kNoPayload);
  best[0] = 42;
  std::vector<std::uint8_t> part(12, 0);
  std::vector<radio::Payload> pay(12, radio::kNoPayload);
  for (int round = 0; round < 400; ++round) {
    for (graph::NodeId v = 0; v < 12; ++v) {
      part[v] = best[v] != radio::kNoPayload;
      pay[v] = best[v];
    }
    decay_round(net, part, pay, best, rng);
    if (best[11] == 42) break;
  }
  EXPECT_EQ(best[11], 42u);
}

TEST(Decay, NoParticipantsNoDeliveries) {
  const graph::Graph g = graph::clique(5);
  util::Rng rng(4);
  radio::Network net(g);
  std::vector<std::uint8_t> part(5, 0);
  std::vector<radio::Payload> pay(5, 1);
  std::vector<radio::Payload> best(5, radio::kNoPayload);
  EXPECT_EQ(decay_round(net, part, pay, best, rng), 0u);
  for (auto b : best) EXPECT_EQ(b, radio::kNoPayload);
}

TEST(Decay, BestKeepsMaximum) {
  // A node already holding a higher value must not regress.
  const graph::Graph g = graph::path(2);
  util::Rng rng(5);
  radio::Network net(g);
  std::vector<std::uint8_t> part{1, 0};
  std::vector<radio::Payload> pay{3, radio::kNoPayload};
  std::vector<radio::Payload> best{3, 10};
  for (int i = 0; i < 20; ++i) {
    decay_step(net, part, pay, 0, best, rng);
  }
  EXPECT_EQ(best[1], 10u);
}

TEST(Decay, VectorCoinsMatchScalar) {
  // The AVX-512F coin kernel must draw exactly what the scalar coin_word
  // loop draws: the same words, the same non-zero lane sets and the same
  // final generator state per lane, for partial lane groups, the
  // no-draw steps 0 and >= 64, deep steps and blocks nobody takes part in.
  if (!radio::simd::has_avx512f()) GTEST_SKIP() << "CPU lacks AVX-512F";
  const std::size_t n = 1000;  // 16 blocks, the last one partial
  const std::size_t blocks = (n + 63) / 64;
  util::Rng pick(2718);
  std::vector<std::uint32_t> steps{0, 63, 64};
  for (std::uint32_t s = 1; s <= 12; ++s) steps.push_back(s);
  for (std::size_t lanes : {2, 7, 8, 9, 33, 63, 64}) {
    for (std::uint32_t step : steps) {
      std::vector<std::uint64_t> block_lanes(blocks);
      for (std::uint64_t& b : block_lanes) {
        const std::uint64_t kind = pick.uniform(4);
        b = kind == 0   ? 0
            : kind == 1 ? ~std::uint64_t{0}
            : kind == 2 ? pick()
                        : pick() & pick();
      }
      std::vector<util::Rng> scalar_rng;
      for (std::size_t l = 0; l < lanes; ++l) {
        scalar_rng.emplace_back(util::mix_seed(lanes * 131 + step, l));
      }
      std::vector<util::Rng> vector_rng = scalar_rng;
      // Garbage in the outputs: every row must be written.
      std::vector<std::uint64_t> scalar_words(64 * blocks, 0xA5A5A5A5ULL);
      std::vector<std::uint64_t> vector_words = scalar_words;
      std::vector<std::uint64_t> scalar_lanes(blocks, 0xA5), vector_lanes(
                                                                 blocks, 0x5A);
      detail::lane_coins_scalar(scalar_rng, block_lanes, step, scalar_words,
                                scalar_lanes);
      detail::lane_coins_avx512(vector_rng, block_lanes, step, vector_words,
                                vector_lanes);
      SCOPED_TRACE(testing::Message() << "lanes " << lanes << " step " << step);
      EXPECT_EQ(scalar_words, vector_words);
      EXPECT_EQ(scalar_lanes, vector_lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(scalar_rng[l].state(), vector_rng[l].state()) << "lane " << l;
      }
    }
  }
}

}  // namespace
}  // namespace radiocast::schedule
