// Per-node protocol implementations (baselines::protocols) run through the
// Engine: correctness, round-complexity shape, and cross-validation
// against the vectorised algorithm cores.
#include "baselines/protocols.hpp"

#include <gtest/gtest.h>

#include "core/compete_batched.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/engine.hpp"
#include "schedule/decay.hpp"

namespace radiocast::baselines::protocols {
namespace {

template <typename P, typename... Args>
radio::EngineResult run_protocol(const graph::Graph& g, std::uint32_t d,
                                 graph::NodeId source, radio::Round budget,
                                 std::uint64_t seed, Args&&... args) {
  radio::Engine eng(g, d);
  util::Rng seeds(seed);
  eng.install(
      [&](graph::NodeId v) -> std::unique_ptr<radio::Protocol> {
        return std::make_unique<P>(v == source ? radio::Payload{99}
                                                : radio::kNoPayload,
                                   std::forward<Args>(args)...);
      },
      seeds);
  return eng.run(budget);
}

TEST(DecayBroadcastProtocol, InformsPath) {
  const auto g = graph::path(60);
  const auto r = run_protocol<DecayBroadcast>(g, 59, 0, 50000, 1);
  EXPECT_TRUE(r.all_done);
}

TEST(DecayBroadcastProtocol, InformsRandomGeometric) {
  util::Rng rng(2);
  const auto g = graph::random_geometric(200, 0.1, rng);
  const auto d = graph::diameter_double_sweep(g);
  const auto r = run_protocol<DecayBroadcast>(g, d, 0, 100000, 2);
  EXPECT_TRUE(r.all_done);
}

TEST(DecayBroadcastProtocol, RoundCountMatchesBatchedCore) {
  // The per-node protocol and the lane-batched core::compete_batched (one
  // lane here) are the same algorithm; with independent randomness their
  // round counts must agree within a small factor (both ~ (D + log n)
  // log n).
  const auto g = graph::path(150);
  const auto oo = run_protocol<DecayBroadcast>(g, 149, 0, 200000, 3);
  ASSERT_TRUE(oo.all_done);
  const std::uint64_t seed[] = {3};
  const auto vec = core::broadcast_batched(
      g, 0, 99, core::bgi_params(g.node_count()), seed)[0];
  ASSERT_TRUE(vec.success);
  const double ratio =
      static_cast<double>(oo.rounds) / static_cast<double>(vec.rounds);
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 3.0);
}

TEST(ShallowDecayProtocol, InformsCliquePath) {
  const auto g = graph::path_of_cliques(30, 5);
  const auto d = graph::diameter_double_sweep(g);
  const auto r = run_protocol<ShallowDecayBroadcast>(g, d, 0, 200000, 4);
  EXPECT_TRUE(r.all_done);
}

TEST(ShallowDecayProtocol, FasterThanFullDecayOnLowCongestion) {
  const auto g = graph::path_of_cliques(50, 4);
  const auto d = graph::diameter_double_sweep(g);
  const auto shallow =
      run_protocol<ShallowDecayBroadcast>(g, d, 0, 400000, 5);
  const auto full = run_protocol<DecayBroadcast>(g, d, 0, 400000, 5);
  ASSERT_TRUE(shallow.all_done);
  ASSERT_TRUE(full.all_done);
  EXPECT_LT(shallow.rounds, full.rounds);
}

TEST(RoundRobinProtocol, DeterministicCompletionWithinND) {
  const auto g = graph::path(40);
  const auto r = run_protocol<RoundRobinBroadcast>(
      g, 39, 0, static_cast<radio::Round>(40) * 40 + 1, 6);
  EXPECT_TRUE(r.all_done);
  EXPECT_LE(r.rounds, 40u * 40u);
  EXPECT_EQ(r.collisions, 0u);  // one transmitter per round, ever
}

TEST(RoundRobinProtocol, SameRoundsForSameInstance) {
  const auto g = graph::cycle(30);
  const auto a = run_protocol<RoundRobinBroadcast>(g, 15, 3, 10000, 7);
  const auto b = run_protocol<RoundRobinBroadcast>(g, 15, 3, 10000, 99);
  ASSERT_TRUE(a.all_done);
  // Fully deterministic: the seed must not matter at all.
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(BeepWave, LayersEqualBfsDistances) {
  util::Rng rng(8);
  const auto g = graph::random_geometric(150, 0.12, rng);
  const auto d = graph::diameter_double_sweep(g);
  radio::Engine eng(g, d, radio::CollisionModel::kDetection);
  util::Rng seeds(8);
  eng.install(
      [](graph::NodeId v) -> std::unique_ptr<radio::Protocol> {
        return std::make_unique<BeepWave>(v == 0);
      },
      seeds);
  const auto r = eng.run(static_cast<radio::Round>(d) + 2);
  EXPECT_TRUE(r.all_done);
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const auto& p = static_cast<const BeepWave&>(eng.protocol(v));
    EXPECT_EQ(p.layer(), dist[v]) << v;
  }
}

TEST(BeepWave, RequiresCollisionDetection) {
  // Without CD, simultaneous beeps cancel and the wave stalls wherever two
  // frontier nodes share a listener. On a "theta" gadget this is
  // deterministic: 0 connected to 1 and 2; both connected to 3.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const auto g = b.build();
  radio::Engine eng(g, 2, radio::CollisionModel::kNoDetection);
  util::Rng seeds(9);
  eng.install(
      [](graph::NodeId v) -> std::unique_ptr<radio::Protocol> {
        return std::make_unique<BeepWave>(v == 0);
      },
      seeds);
  const auto r = eng.run(50);
  EXPECT_FALSE(r.all_done);  // node 3 never hears a clean beep
  const auto& p3 = static_cast<const BeepWave&>(eng.protocol(3));
  EXPECT_EQ(p3.layer(), BeepWave::kNoLayer);
}

TEST(LayeredCdBroadcast, InformsEveryoneUnderCd) {
  util::Rng rng(10);
  const auto g = graph::random_geometric(200, 0.1, rng);
  const auto d = graph::diameter_double_sweep(g);
  radio::Engine eng(g, d, radio::CollisionModel::kDetection);
  util::Rng seeds(10);
  eng.install(
      [](graph::NodeId v) -> std::unique_ptr<radio::Protocol> {
        return std::make_unique<LayeredCdBroadcast>(
            v == 0 ? radio::Payload{7} : radio::kNoPayload);
      },
      seeds);
  const auto r = eng.run(200000);
  EXPECT_TRUE(r.all_done);
}

TEST(LayeredCdBroadcast, LayeringHoldsOnPath) {
  // On a path the layered schedule is collision-free after the wave; the
  // message must advance briskly (one layer per <= 3*lambda rounds).
  const auto g = graph::path(50);
  radio::Engine eng(g, 49, radio::CollisionModel::kDetection);
  util::Rng seeds(11);
  eng.install(
      [](graph::NodeId v) -> std::unique_ptr<radio::Protocol> {
        return std::make_unique<LayeredCdBroadcast>(
            v == 0 ? radio::Payload{7} : radio::kNoPayload);
      },
      seeds);
  const auto r = eng.run(100000);
  ASSERT_TRUE(r.all_done);
  const std::uint64_t lambda = schedule::decay_round_length(50);
  EXPECT_LT(r.rounds, 51 + 49ull * 3 * lambda * 4);
}

}  // namespace
}  // namespace radiocast::baselines::protocols
